"""Closed-form ordered distribution functions from the counting polynomial.

``K * det[B + t*A; C]`` generates the number of eigenvalues above x, so
every ordered CDF is a sum of its coefficients.  These tests hold it against
the routes that do not use it: quadrature of the tensor engine's density,
the interval probabilities, and a sample-free run of the analytic paths.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import eigendist.distributions as dist
import eigendist.montecarlo
from eigendist.distributions import (
    _count_distribution,
    _marginal_cuts,
    _ordered_densities,
    _rank_cdfs,
    cdf_curve,
    cdf_single,
    curve,
    expect_single,
    joint_pdf_ordered,
    joint_pdf_unordered,
    mgf_single,
    moment_single,
    pdf_pair,
    pdf_pair_grid,
    pdf_single,
    prob_all_in,
)
from eigendist.ensembles import (
    IDENTITY_TILT,
    Beta,
    CorrelatedWishart,
    GUE,
    NoncentralWishart,
    SpikedWishart,
    UncorrelatedWishart,
    kernel_form,
    spec_string,
)
from eigendist.errors import CapabilityError, NumericError
from eigendist.pseudodet import EvalStats

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


def test_beta_cdf_around_the_middle_stays_in_unit_interval():
    # segments around x = 0.5 must keep their relative accuracy: an error of
    # 1e-12 in the slices reads P(lambda_8 <= 0.4) above one
    vals = cdf_curve(Beta(8, 3, 3), 8, np.linspace(0.3, 0.7, 9))
    assert np.all((vals >= 0.0) & (vals <= 1.0)), vals
    assert np.all(np.diff(vals) >= 0.0), vals


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
        lambda: prob_all_in(GUE(3), math.nan, 0.25),
        lambda: prob_all_in(GUE(3), -0.25, math.nan),
        lambda: prob_all_in(Beta(3, 1, 2), math.nan, 0.5),
        lambda: prob_all_in(Beta(3, 1, 2), 0.25, math.nan),
        lambda: prob_all_in(CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2)), math.nan, 0.25),
        lambda: prob_all_in(CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2)), 0.25, math.nan),
        lambda: kernel_form(W34).ordered_density((2.0, math.nan, 1.0)),
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
    real = dist._ordered_densities

    def counting(kernel, indices, xs, stats=None):
        evaluated.extend(np.asarray(xs)[:, 0].tolist())
        return real(kernel, indices, xs, stats)

    monkeypatch.setattr(dist, "_ordered_densities", counting)
    kernel_form.cache_clear()
    assert moment_single(model, 2, 0) == pytest.approx(1.0, abs=1e-8)
    first = len(evaluated)
    # the adaptive rule reuses the mass integral's nodes: same values, few new densities
    assert [moment_single(model, 2, order) for order in (1, 2)] == cold
    assert len(evaluated) - first < first / 2
    assert len(set(evaluated)) == len(evaluated)


# -- batched abscissae ---------------------------------------------------------------------

# the kernel-rule models of test_ensembles
MODELS = [case[0] for case in GATE_MODELS[:7]]
W46 = UncorrelatedWishart(4, 6)


def _spread(model, count):
    lo, hi = kernel_form(model).support
    if lo == -math.inf:
        return np.linspace(-2.6, 2.6, count)
    if hi == 1.0:
        return np.linspace(0.04, 0.96, count)
    return np.geomspace(0.1, 14.0, count)


@pytest.mark.parametrize("model", MODELS, ids=spec_string)
def test_batched_values_equal_single_calls(model):
    # a value does not depend on the batch it is computed in
    kernel = kernel_form(model)
    xs = _spread(model, 12)
    cdfs = _rank_cdfs(kernel, xs)
    cdfs_reversed = _rank_cdfs(kernel, xs[::-1])[::-1]
    for ell in range(1, kernel.m + 1):
        densities = _ordered_densities(kernel, (ell,), xs[:, None])
        reversed_densities = _ordered_densities(kernel, (ell,), xs[::-1, None])[::-1]
        for k, x in enumerate(xs.tolist()):
            assert pdf_single(model, ell, x) == densities[k] == reversed_densities[k], (ell, x)
            assert cdf_single(model, ell, x) == cdfs[k, ell - 1] == cdfs_reversed[k, ell - 1], (ell, x)


def test_batched_pairs_group_ties_as_alone():
    # a row of equal abscissae is a tie, 0 without reaching the operator, and
    # the other rows are grouped and evaluated exactly as alone
    kernel = kernel_form(W46)
    xs = np.array([[5.0, 2.0], [3.0, 3.0], [7.5, 0.5], [4.0, 4.0]])
    batch = _ordered_densities(kernel, (1, 3), xs)
    assert list(batch) == [joint_pdf_ordered(W46, (1, 3), tuple(row)) for row in xs.tolist()]


@pytest.mark.parametrize("model", MODELS, ids=spec_string)
def test_pair_grid_is_one_batch_of_single_calls(model):
    # a surface is one batch: every entry is its pdf_pair value bit for bit,
    # so the wedge x_s >= x_ell, diagonal included, is exactly 0
    m = kernel_form(model).m
    grid = _spread(model, 6)
    for ell, s in ((1, 2), (1, m)):
        surface = pdf_pair_grid(model, ell, s, grid, grid[1:])
        assert surface.shape == (6, 5)
        for i, x1 in enumerate(grid.tolist()):
            for j, x2 in enumerate(grid[1:].tolist()):
                assert surface[i, j] == pdf_pair(model, ell, s, x1, x2), (ell, s, x1, x2)
                assert (surface[i, j] == 0.0) == (x2 >= x1), (ell, s, x1, x2)


def test_pair_grid_validation():
    grid = [1.0, 2.0]
    for ell, s in ((2, 1), (2, 2), (0, 2), (1, 5)):
        with pytest.raises(ValueError):
            pdf_pair_grid(W46, ell, s, grid, grid)
    for bad in ([2.0, 1.0], [1.0, math.nan]):
        with pytest.raises(ValueError):
            pdf_pair_grid(W46, 1, 2, grid, bad)
    with pytest.raises(CapabilityError):
        pdf_pair_grid(UncorrelatedWishart(9, 12), 1, 2, grid, grid)


def test_off_support_rows_are_dropped_before_batching(monkeypatch):
    # an operator call takes at most _CHUNK / n = 1024 rows of W4x5; a 40 x 40
    # surface has 1600 rows, but only the 780 below the diagonal are on the
    # ordered support, and they go in one call, as do the 800 support points
    # of a 1600-point unordered curve
    model = UncorrelatedWishart(4, 5)
    counts = []
    operator = dist._operator

    def spy(kernel, keys, count, stats=None):
        counts.append(count)
        return operator(kernel, keys, count, stats)

    monkeypatch.setattr(dist, "_operator", spy)
    grid = np.linspace(0.0, 20.0, 40)
    surface = pdf_pair_grid(model, 1, 2, grid, grid)
    line = np.linspace(-20.0, 20.0, 1600)
    values = curve(model, "unordered-pdf", line).values
    assert counts == [780, 800]
    for i, x1 in enumerate(grid.tolist()):
        for j, x2 in enumerate(grid.tolist()):
            assert surface[i, j] == pdf_pair(model, 1, 2, x1, x2), (x1, x2)
    assert list(values) == [joint_pdf_unordered(model, 1, (x,)) for x in line.tolist()]


@pytest.mark.parametrize("model", MODELS + [SpikedWishart(6, 10, 10.0, 1.0)], ids=spec_string)
def test_ties_are_exact_zeros(model):
    # two equal eigenvalues make the Vandermonde factor vanish: every density
    # at a tie is 0 by rule, alone and as a row of a batch, whose other rows
    # keep the values of their single calls
    kernel = kernel_form(model)
    m = kernel.m
    xs = _spread(model, m + 2)[::-1].tolist()
    x = xs[1]
    for pair in itertools.combinations(range(1, m + 1), 2):
        assert pdf_pair(model, *pair, x, x) == 0.0, pair
        rows = [(xs[0], xs[2]), (x, x), (x, xs[3])]
        batch = _ordered_densities(kernel, pair, np.array(rows))
        assert list(batch) == [pdf_pair(model, *pair, *row) for row in rows], pair
        assert batch[1] == 0.0 and batch[0] != 0.0, pair
    ranks = tuple(range(1, m + 1))
    tied = xs[:m]
    tied[m // 2] = tied[m // 2 - 1]
    rows = [xs[:m], tied, xs[1 : m + 1]]
    batch = _ordered_densities(kernel, ranks, np.array(rows))
    assert list(batch) == [joint_pdf_ordered(model, ranks, row) for row in rows]
    assert batch[1] == 0.0 and batch[0] != 0.0
    assert kernel.ordered_density(tied) == 0.0
    assert joint_pdf_unordered(model, 2, (x, x)) == 0.0
    # the unordered density sorts its points: symmetric bit for bit
    assert joint_pdf_unordered(model, 2, (xs[2], xs[0])) == joint_pdf_unordered(model, 2, (xs[0], xs[2])) != 0.0


# -- slice reuse ----------------------------------------------------------------------------


def _cold(fn):
    # a value computed with no slice left over from an earlier call
    kernel_form.cache_clear()
    return fn()


@pytest.mark.parametrize("model", MODELS, ids=spec_string)
def test_reused_slices_give_cold_values(model):
    # every rank at one abscissa reuses the slices of the call before it, in
    # any order and interleaved with another model, and gives the value of a
    # cold call bit for bit
    m = kernel_form(model).m
    x = float(_spread(model, 5)[2])
    cold = [_cold(lambda: pdf_single(model, ell, x)) for ell in range(1, m + 1)]
    other, y = W46, 3.5
    other_cold = [_cold(lambda: pdf_single(other, ell, y)) for ell in range(1, other.dim + 1)]
    kernel_form.cache_clear()
    assert [pdf_single(model, ell, x) for ell in range(1, m + 1)] == cold
    assert [pdf_single(model, ell, x) for ell in range(m, 0, -1)] == cold[::-1]
    kernel_form.cache_clear()
    mixed, other_mixed = [], []
    for ell in range(1, max(m, other.dim) + 1):
        if ell <= m:
            mixed.append(pdf_single(model, ell, x))
        if ell <= other.dim:
            other_mixed.append(pdf_single(other, ell, y))
    assert mixed == cold and other_mixed == other_cold


@pytest.mark.parametrize("model", MODELS + [UncorrelatedWishart(4, 5)], ids=spec_string)
def test_reused_slices_give_cold_pair_values(model):
    m = kernel_form(model).m
    x, y = _spread(model, 5)[[3, 1]].tolist()
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    cold = [_cold(lambda: pdf_pair(model, ell, s, x, y)) for ell, s in pairs]
    kernel_form.cache_clear()
    assert [pdf_pair(model, ell, s, x, y) for ell, s in pairs] == cold


@pytest.mark.parametrize("model", MODELS, ids=spec_string)
def test_reused_slices_give_cold_curves(model):
    m = kernel_form(model).m
    grid = _spread(model, 40)
    cold = [_cold(lambda: curve(model, "pdf", grid, index=ell).values) for ell in range(1, m + 1)]
    kernel_form.cache_clear()
    assert [curve(model, "pdf", grid, index=ell).values for ell in range(1, m + 1)] == cold


def test_slice_reuse_telemetry():
    # the six ranks at one abscissa need three slices: the point and the
    # segments below and above it; a repeated call fills none
    model = UncorrelatedWishart(6, 10)
    cold = EvalStats()
    for ell in range(1, 7):
        kernel_form.cache_clear()
        pdf_single(model, ell, 7.5, stats=cold)
    assert cold.slices_reused == 0
    kernel_form.cache_clear()
    stats = EvalStats()
    for ell in range(1, 7):
        pdf_single(model, ell, 7.5, stats=stats)
    assert stats.slices_filled == 3
    assert stats.slices_filled + stats.slices_reused == cold.slices_filled
    assert stats.determinants == cold.determinants
    again = EvalStats()
    pdf_single(model, 6, 7.5, stats=again)
    assert (again.slices_filled, again.slices_reused) == (0, 2)


def test_slice_memo_holds_one_call():
    kernel_form.cache_clear()
    kernel = kernel_form(W46)
    xs = np.linspace(0.5, 12.0, 1000)
    for x in xs.tolist():
        pdf_single(W46, 1, x)
    # the last call's point slice and the segment below it, nothing else
    memo = kernel.memo["slices"]
    assert len(memo) == 2
    last = [kernel.slice(xs[-1:]), kernel.slice((0.0, xs[-1:], IDENTITY_TILT))]
    for (signs, logs), _ in memo.values():
        assert any(np.array_equal(signs, s) and np.array_equal(logs, l) for s, l in last)


def test_slice_memo_is_read_only():
    kernel_form.cache_clear()
    pdf_pair(W46, 1, 3, 6.0, 2.0)
    # each of the four slices, and its scaled rows with their shifts
    arrays = [a for entry in kernel_form(W46).memo["slices"].values() for pair in entry for a in pair]
    assert len(arrays) == 16
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0


@pytest.mark.parametrize("model", MODELS, ids=spec_string)
def test_unordered_curve_equals_pointwise_densities(model):
    # one batched call; points outside the support, and infinite ones, are exactly 0
    lo, hi = kernel_form(model).support
    grid = np.concatenate([[lo - 0.5], _spread(model, 9), [hi + 0.5]])
    values = curve(model, "unordered-pdf", grid).values
    assert list(values) == [joint_pdf_unordered(model, 1, (float(x),)) for x in grid]
    assert values[0] == 0.0 and values[-1] == 0.0 and min(values[1:-1]) > 0.0


def test_marginal_weights_are_asked_only_where_the_density_lives():
    # far nodes of the mapped infinite end have density 0, where e^(x/2) overflows
    assert expect_single(W46, 1, lambda x: math.exp(0.5 * x)) == mgf_single(W46, 1, 0.5)


def test_nonintegrable_weight_raises():
    with pytest.raises(NumericError, match="did not converge"):
        expect_single(W46, 2, lambda x: 1.0 / abs(x - 7.0 - math.pi / 10))


@pytest.mark.parametrize("model", [W46, GUE(4), Beta(3, 1, 2)], ids=spec_string)
def test_pdf_curve_equals_pointwise_densities(model):
    lo, hi = kernel_form(model).support
    grid = np.concatenate([[max(lo, -9.0) - 0.5], _spread(model, 9), [min(hi, 40.0)]])
    for ell in range(1, model.dim + 1):
        values = curve(model, "pdf", grid, index=ell).values
        assert list(values) == [pdf_single(model, ell, float(x)) for x in grid], ell


# every rank of the cdf_quad benchmark families and a noncentral model, and
# one rank of a large kernel
ORACLE_CASES = [
    (model, ell)
    for model in (
        W46,
        SpikedWishart(3, 5, 12.0, 1.0),
        GUE(4),
        CorrelatedWishart(3, 4, (2.2, 0.8), (1, 3)),
        Beta(3, 1, 2),
        NoncentralWishart(3, 4, (3.0, 0.5)),
    )
    for ell in range(1, model.dim + 1)
] + [(UncorrelatedWishart(8, 10), 4)]


@functools.lru_cache(maxsize=None)
def _oracle_density(model, ell, x):
    return pdf_single(model, ell, x)


def _quad_expectation(model, ell, weight):
    # scalar adaptive quadrature of the density over the same cuts, at the
    # tolerances of the batched rule
    kernel = kernel_form(model)
    lo, hi = kernel.support
    cuts = [lo] + [e for e in _marginal_cuts(kernel, ell) if lo < e < hi] + [hi]

    def f(x):
        density = _oracle_density(model, ell, x)
        return weight(x) * density if density else 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        return sum(quad(f, a, b, epsabs=1e-9, epsrel=1e-8, limit=300)[0] for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: f"{spec_string(c[0])} rank {c[1]}")
def test_marginal_expectations_match_scalar_quadrature(case):
    model, ell = case
    mass = moment_single(model, ell, 0)
    assert mass == pytest.approx(_quad_expectation(model, ell, lambda x: 1.0), rel=0.0, abs=1e-9)
    for order in (1, 2):
        want = _quad_expectation(model, ell, lambda x: x**order)
        assert moment_single(model, ell, order) == pytest.approx(want, rel=1e-9, abs=0.0), order
    want = _quad_expectation(model, ell, lambda x: math.exp(-0.3 * x))
    assert mgf_single(model, ell, -0.3) == pytest.approx(want, rel=1e-9, abs=0.0)


def _ladder_edge(kernel, side):
    # the bracket's rule from the whole count distribution: step out toward
    # one edge, one _rank_cdfs call per step, up to the first step whose
    # tail P(lambda_m <= a) (side 0) or P(lambda_1 > b) (side 1) is at most
    # the outer cut level; no step past it is evaluated
    lo, hi = kernel.support
    edge, tail = (lo, hi)[side], dist._CUT_LEVELS[0]
    x = (lo + hi) / 2.0 if math.isfinite(hi) else lo + 1.0 if math.isfinite(lo) else 0.0
    width = 1.0
    for _ in range(dist._LADDER_STEPS):
        if math.isfinite(edge):
            x = edge + (x - edge) / 4.0
        else:
            x, width = x + (2 * side - 1) * width, 2.0 * width
        f = _rank_cdfs(kernel, np.array([x]))[0]
        if (f[-1] <= tail) if side == 0 else (f[0] >= 1.0 - tail):
            return x
    raise AssertionError(f"no passing step toward {edge}")


# the oracle models, W8x10 among them, and a kernel whose total mass reads
# 1 - 4.2e-6, which a tail held against 1 would never pass
BRACKET_MODELS = list(dict.fromkeys(model for model, _ in ORACLE_CASES)) + [Beta(8, 3, 3)]


@pytest.mark.parametrize("model", BRACKET_MODELS, ids=spec_string)
def test_bulk_bracket_equals_the_count_distribution_rule(model, monkeypatch):
    kernel = kernel_form(model)
    circles = []
    pencil = dist._pencil_circles
    monkeypatch.setattr(dist, "_pencil_circles", lambda *args: circles.append(1) or pencil(*args))
    bracket = dist._bulk_bracket(kernel)
    # the bracket reads the two end determinants of each step, no circle
    assert circles == []
    assert bracket == (_ladder_edge(kernel, 0), _ladder_edge(kernel, 1))
    assert circles, "the reference rule runs the circles"


def test_stalled_series_is_a_numeric_error():
    # the far quadrature nodes of the mapped infinite end reach 0F1 at
    # z ~ 1.2e8, whose terms peak past the series' iteration cap
    with pytest.raises(NumericError, match="0F1 series stalled"):
        moment_single(NoncentralWishart(3, 4, (700.0, 0.5)), 1, 1)
