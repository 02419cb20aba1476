"""Closed-form ordered distribution functions from the counting polynomial.

``K * det[B + t*A; C]`` generates the number of eigenvalues above x, so
every ordered CDF is a sum of its coefficients.  These tests hold it against
the routes that do not use it: quadrature of the tensor engine's density,
the interval probabilities, and a sample-free run of the analytic paths.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import eigendist.montecarlo
from eigendist.distributions import (
    _count_distribution,
    cdf_curve,
    cdf_single,
    curve,
    expect_single,
    joint_pdf_ordered,
    joint_pdf_unordered,
    mgf_single,
    moment_single,
    pdf_pair,
    pdf_single,
    prob_all_in,
)
from eigendist.ensembles import (
    Beta,
    CorrelatedWishart,
    GUE,
    NoncentralWishart,
    SpikedWishart,
    UncorrelatedWishart,
    kernel_form,
    spec_string,
)
from eigendist.errors import NumericError

# the kernel-rule models of test_ensembles, then larger and rectangular ones,
# each with three bulk abscissae and a deep lower and upper tail point
GATE_MODELS = [
    (UncorrelatedWishart(3, 5), (0.3, 2.0, 7.5), 0.02, 40.0),
    (SpikedWishart(3, 4, 2.0, 1.0), (0.3, 2.0, 7.5), 0.01, 40.0),
    (CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2)), (0.3, 2.0, 7.5), 0.001, 30.0),
    (CorrelatedWishart(3, 2, (2.0, 1.0), (1, 1)), (0.3, 2.0, 7.5), 0.01, 30.0),
    (GUE(3), (-1.7, 0.4, 2.2), -4.5, 4.5),
    (Beta(3, 1, 2), (0.15, 0.5, 0.85), 0.01, 0.995),
    (NoncentralWishart(2, 3, (2.0,)), (0.3, 2.0, 7.5), 0.01, 40.0),
    (UncorrelatedWishart(8, 10), (2.0, 7.5, 20.0), 0.4, 15.0),
    (CorrelatedWishart(4, 6, (2.0, 1.0), (2, 4)), (0.3, 2.0, 7.5), 0.05, 20.0),
    (NoncentralWishart(3, 4, (3.0, 0.5)), (0.3, 2.0, 7.5), 0.02, 30.0),
    (Beta(4, 1, 2), (0.15, 0.5, 0.85), 0.03, 0.99),
]


def _ids(case):
    return spec_string(case[0])


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("case", GATE_MODELS, ids=_ids)
def test_cdf_matches_quadrature_of_tensor_density(case):
    model, xs, _, _ = case
    kernel = kernel_form(model)
    lo = kernel.support[0]
    for ell in range(1, kernel.m + 1):
        f = lambda x: pdf_single(model, ell, x)
        total, a = 0.0, lo
        for x in xs:
            piece, _ = quad(f, a, x, epsabs=1e-9, epsrel=1e-9, limit=200)
            total, a = total + piece, x
            assert cdf_single(model, ell, x) == pytest.approx(total, abs=1e-8), (ell, x)


@pytest.mark.parametrize("case", GATE_MODELS, ids=_ids)
def test_extreme_ranks_match_interval_probabilities(case):
    # P(no eigenvalue above x) and P(all of them above x) are the end
    # coefficients; the public value is that coefficient wherever it is the
    # smaller tail, and the complement of the other tail elsewhere
    model, xs, deep_lo, deep_hi = case
    kernel = kernel_form(model)
    lo, hi = kernel.support
    m = kernel.m
    deep = []
    for x in (deep_lo, *xs, deep_hi):
        counts = _count_distribution(kernel, x)
        below, above = prob_all_in(model, lo, x), prob_all_in(model, x, hi)
        assert counts[0] == pytest.approx(below, rel=1e-10, abs=0.0), x
        assert counts[m] == pytest.approx(above, rel=1e-10, abs=0.0), x
        top, bottom = cdf_single(model, 1, x), cdf_single(model, m, x)
        if below <= 0.5:
            assert top == pytest.approx(below, rel=1e-10, abs=0.0), x
        else:
            assert top == pytest.approx(below, abs=1e-8), x
        # 1 - F_m cannot be formed in floating point below 1e-16, so the
        # public value is held to one rounding of 1 - P(all above x)
        assert bottom == pytest.approx(1.0 - above, abs=1e-15 if above <= 0.5 else 1e-8), x
        deep += [below, above]
    assert min(deep) < 1e-20


def test_count_distribution_is_a_distribution():
    # the sum is K * det(full slice) up to the rounding of the two segment
    # slices; W8x10 reads 1 + 2.5e-9 at x = 0.4
    for model, xs, deep_lo, deep_hi in GATE_MODELS:
        kernel = kernel_form(model)
        for x in (deep_lo, *xs, deep_hi):
            counts = _count_distribution(kernel, x)
            assert np.all(counts >= 0.0), (spec_string(model), x)
            assert counts.sum() == pytest.approx(1.0, abs=1e-8), (spec_string(model), x)


def test_unresolved_tails_raise():
    # Past this point the monomial-basis slices no longer resolve the
    # smallest tail: the interval probability itself reads below zero.
    corr = CorrelatedWishart(4, 6, (2.0, 1.0), (2, 4))
    assert prob_all_in(corr, 0.0, 0.02) < 0.0
    with pytest.raises(NumericError, match="resolution"):
        cdf_single(corr, 1, 0.02)
    with pytest.raises(NumericError, match="resolution"):
        cdf_curve(GUE(8), 1, [-3.0, -2.0])
    # only the requested rank has to be resolved
    assert 0.0 < cdf_single(GUE(8), 3, -3.0) < 1e-20


# the cdf_quad benchmark families, on grids reaching far into both tails
RANGE_MODELS = [
    (UncorrelatedWishart(4, 6), (0.0, 80.0)),
    (SpikedWishart(3, 5, 12.0, 1.0), (0.0, 250.0)),
    (GUE(4), (-9.0, 9.0)),
    (CorrelatedWishart(3, 4, (3.0, 0.5), (1, 3)), (0.0, 60.0)),
    (Beta(3, 1, 2), (0.0, 1.0)),
]


@pytest.mark.parametrize("case", RANGE_MODELS, ids=_ids)
def test_cdf_curves_stay_in_unit_interval_and_nondecreasing(case):
    model, span = case
    grid = np.linspace(*span, 400)
    curves = [cdf_curve(model, ell, grid) for ell in range(1, model.dim + 1)]
    for ell, vals in enumerate(curves, 1):
        assert np.all((vals >= 0.0) & (vals <= 1.0)), ell
        assert np.all(np.diff(vals) >= 0.0), ell
    # the grid reaches past the whole spectrum on both sides
    assert curves[0][1] < 1e-12 and curves[-1][-2] > 1.0 - 1e-12


def test_cdf_ranks_are_ordered():
    # lambda_1 >= ... >= lambda_m, so F_1 <= ... <= F_m everywhere
    for model, xs, _, _ in GATE_MODELS:
        for x in xs:
            vals = [cdf_single(model, ell, x) for ell in range(1, model.dim + 1)]
            assert np.all(np.diff(vals) >= -1e-15), (spec_string(model), x)


# -- non-finite abscissae ----------------------------------------------------------


W34 = UncorrelatedWishart(3, 4)


def test_densities_vanish_at_infinity():
    assert pdf_single(W34, 1, math.inf) == 0.0
    assert pdf_single(GUE(3), 2, math.inf) == 0.0
    assert pdf_single(GUE(3), 2, -math.inf) == 0.0
    assert pdf_pair(W34, 1, 2, math.inf, 1.0) == 0.0
    assert pdf_pair(GUE(3), 1, 3, 0.5, -math.inf) == 0.0
    assert joint_pdf_ordered(W34, (1, 3), (math.inf, 2.0)) == 0.0
    assert joint_pdf_unordered(W34, 2, (1.0, math.inf)) == 0.0
    assert joint_pdf_unordered(GUE(3), 1, (-math.inf,)) == 0.0


def test_cdf_limits_at_infinity():
    assert cdf_single(W34, 2, math.inf) == 1.0
    assert cdf_single(GUE(3), 1, math.inf) == 1.0
    assert cdf_single(GUE(3), 3, -math.inf) == 0.0
    assert list(cdf_curve(GUE(3), 2, [-math.inf, 0.0, math.inf]))[::2] == [0.0, 1.0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: pdf_single(W34, 1, math.nan),
        lambda: pdf_pair(W34, 1, 2, math.nan, 1.0),
        lambda: pdf_pair(W34, 1, 2, 3.0, math.nan),
        lambda: joint_pdf_ordered(W34, (1, 2), (2.0, math.nan)),
        lambda: joint_pdf_unordered(W34, 1, (math.nan,)),
        lambda: cdf_single(W34, 1, math.nan),
        lambda: cdf_single(GUE(3), 2, math.nan),
        lambda: cdf_curve(W34, 1, [1.0, math.nan, 2.0]),
        lambda: cdf_curve(W34, 1, [math.nan]),
        lambda: curve(W34, "cdf", [1.0, math.nan], index=1),
        lambda: curve(W34, "pdf", [math.nan, 1.0], index=1),
        lambda: curve(W34, "unordered-pdf", [0.5, math.nan]),
    ],
)
def test_nan_abscissae_rejected(call):
    with pytest.raises(ValueError, match="NaN"):
        call()


# -- no randomness in analytic paths ----------------------------------------------------


def test_analytic_paths_draw_no_samples(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an analytic path drew a Monte Carlo sample")

    monkeypatch.setattr(eigendist.montecarlo, "sample", no_sampling)
    kernel_form.cache_clear()
    for model in (SpikedWishart(2, 3, 5.5, 1.0), CorrelatedWishart(2, 3, (2.5, 0.75), (1, 2))):
        grid = [0.5, 2.0, 6.0]
        assert 0.0 < cdf_single(model, 1, 2.0) < 1.0
        assert np.all(np.diff(cdf_curve(model, 2, grid)) > 0.0)
        assert 0.0 < curve(model, "cdf", grid, index=1).values[-1] < 1.0
        assert expect_single(model, 2, lambda x: 1.0) == pytest.approx(1.0, abs=1e-8)
        assert moment_single(model, 1, 1) > moment_single(model, 2, 1) > 0.0
        assert mgf_single(model, 2, -0.5) < 1.0


# -- expectations of one marginal share the densities at their nodes ---------------------


def test_moments_of_one_marginal_share_node_densities(monkeypatch):
    import eigendist.distributions as dist

    model = UncorrelatedWishart(3, 5)
    kernel_form.cache_clear()
    cold = [moment_single(model, 2, order) for order in (1, 2)]
    for order in (1, 2):  # each from empty caches
        kernel_form.cache_clear()
        assert moment_single(model, 2, order) == cold[order - 1]

    evaluated = []
    real = dist.pdf_single
    monkeypatch.setattr(dist, "pdf_single", lambda *args: evaluated.append(args[2]) or real(*args))
    kernel_form.cache_clear()
    assert moment_single(model, 2, 0) == pytest.approx(1.0, abs=1e-8)
    first = len(evaluated)
    # the adaptive rule reuses the mass integral's nodes: same values, few new densities
    assert [moment_single(model, 2, order) for order in (1, 2)] == cold
    assert len(evaluated) - first < first / 2
    assert len(set(evaluated)) == len(evaluated)
