"""Kernel decompositions: constants, segment rules, and model validation."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from eigendist.ensembles import (
    Beta,
    CorrelatedWishart,
    GUE,
    NoncentralWishart,
    SpikedWishart,
    Tilt,
    UncorrelatedWishart,
    kernel_form,
    mean_eigenvalue_sum,
    normalization_check,
    parse_spec,
    spec_string,
)
from eigendist.ensembles import _gauss_segment
from eigendist.errors import ConditioningWarning, InvalidModelError


# -- normalizing constants -----------------------------------------------------


def test_uncorrelated_constant_m1():
    kf = kernel_form(UncorrelatedWishart(1, 1))
    assert kf.log_k.to_float() == pytest.approx(1.0)
    assert kf.m == kf.n == 1
    assert kf.support == (0.0, math.inf)


def test_uncorrelated_constant_m4_n5():
    # 1/K = (4! 3! 2! 1!) * (3! 2! 1!) = 3456
    kf = kernel_form(UncorrelatedWishart(4, 5))
    assert kf.log_k.to_float() == pytest.approx(1.0 / 3456.0, rel=1e-14)


def test_spiked_constant_m2_n2():
    kf = kernel_form(SpikedWishart(2, 2, 2.0, 1.0))
    assert kf.log_k.to_float() == pytest.approx(0.5, rel=1e-14)


def test_gue_constant_small():
    assert kernel_form(GUE(1)).log_k.to_float() == pytest.approx(1.0 / math.sqrt(math.pi))
    assert kernel_form(GUE(2)).log_k.to_float() == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_beta_constant_m1_is_beta_function():
    m, n = 2, 3
    kf = kernel_form(Beta(1, m, n))
    want = 1.0 / (math.factorial(m) * math.factorial(n) / math.factorial(m + n + 1))
    assert kf.log_k.to_float() == pytest.approx(want, rel=1e-14)


# -- entry and segment rules ------------------------------------------------------

MODELS = [
    UncorrelatedWishart(3, 5),
    SpikedWishart(3, 4, 2.0, 1.0),
    CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2)),
    CorrelatedWishart(3, 2, (2.0, 1.0), (1, 1)),  # p > n rank-deficient case
    GUE(3),
    Beta(3, 1, 2),
    NoncentralWishart(2, 3, (2.0,)),
]


def _abscissae(support):
    lo, hi = support
    if lo == -math.inf:
        return (-1.7, 0.4, 2.2)
    if hi == 1.0:
        return (0.15, 0.5, 0.85)
    return (0.3, 2.0, 7.5)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: spec_string(m))
def test_point_rule_matches_row_functions(model):
    # entry (i, j) is phi_i * xi * psi_j, with bare xi on the rows past m
    kernel = kernel_form(model)
    for x in _abscissae(kernel.support):
        for i in range(1, kernel.n + 1):
            row = kernel.phi(i, x) * kernel.xi(x) if i <= kernel.m else kernel.xi(x)
            for j in range(1, kernel.n + 1):
                got, want = kernel.point(i, j, x), row * kernel.psi(j, x)
                assert got.sign == want.sign, (i, j, x)
                assert got.logmag == pytest.approx(want.logmag, rel=1e-14), (i, j, x)


SLICE_MODELS = MODELS + [
    UncorrelatedWishart(8, 10),
    SpikedWishart(6, 10, 10.0, 1.0),
    CorrelatedWishart(4, 6, (2.0, 1.0), (2, 4)),
    NoncentralWishart(3, 4, (3.0, 0.5)),
]

NARROW = 1e-4


def _slice_keys(kernel):
    lo, hi = kernel.support
    bulk = _abscissae(kernel.support)
    points = sorted({0.0, *(v for v in (lo, hi) if math.isfinite(v)), *bulk})
    segments = [
        (lo, hi),
        (bulk[0], bulk[2]),
        (bulk[1], hi),
        (lo, bulk[1]),
        (0.0, 1e-3),
        (0.0, 0.05),
        *((x, x + NARROW) for x in bulk),
    ]
    rate = 0.25 * kernel.max_exp_rate if math.isfinite(kernel.max_exp_rate) else 0.5
    tilts = [Tilt(power=2), Tilt(rate=rate), Tilt(rate=-0.3)]
    return points + [(a, b, Tilt()) for a, b in segments] + [(lo, hi, t) for t in tilts]


@pytest.mark.parametrize("model", SLICE_MODELS, ids=lambda m: spec_string(m))
def test_slices_match_entry_rules(model):
    kernel = kernel_form(model)
    for key in _slice_keys(kernel):
        rel = 1e-12
        if isinstance(key, tuple) and key[1] - key[0] == pytest.approx(NARROW):
            # entries over (x, x + w) are differences of two incomplete gamma
            # values that agree to about log10(x / w) digits, so a few ulp of
            # rounding in either route moves an entry by about 1e-16 * x / w
            # relative, which is that much in its log
            rel = max(rel, 1e-15 * abs(key[0]) / NARROW)
        signs, logs = kernel.slice(key)
        for i in range(1, kernel.n + 1):
            for j in range(1, kernel.n + 1):
                if isinstance(key, tuple):
                    want = kernel.tilted_segment(i, j, *key)
                else:
                    want = kernel.point(i, j, key)
                assert signs[i - 1, j - 1] == want.sign, (key, i, j)
                got = logs[i - 1, j - 1]
                assert got == pytest.approx(want.logmag, rel=rel, abs=rel), (key, i, j)


@pytest.mark.parametrize(
    "model",
    [NoncentralWishart(3, 4, (5.0, 0.5)), NoncentralWishart(2, 3, (2.0,))],
    ids=lambda m: spec_string(m),
)
def test_noncentral_series_columns_match_quadrature(model):
    kernel = kernel_form(model)
    for tilt in [Tilt(), Tilt(power=2), Tilt(rate=0.25), Tilt(rate=-0.3)]:
        for a, b in [(0.0, math.inf), (3.0, 7.0), (20.0, 20.5), (0.0, 0.01)]:
            signs, logs = kernel.slice((a, b, tilt))
            for i in range(1, kernel.n + 1):
                for j in range(1, model.rank + 1):

                    def f(x):
                        # in log form: x^2 e^(rate x) alone overflows far out
                        v = kernel.point(i, j, x)
                        log_tilt = tilt.power * math.log(x) if tilt.power else 0.0
                        return math.exp(v.logmag + log_tilt + tilt.rate * x) if v.sign else 0.0

                    want, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
                    got = signs[i - 1, j - 1] * math.exp(logs[i - 1, j - 1])
                    assert got == pytest.approx(want, rel=1e-10), (tilt, a, b, i, j)
    assert normalization_check(model) == pytest.approx(1.0, abs=1e-12)


def test_gauss_segment_near_the_origin():
    # x^10 e^(-x^2) integrates to gamma(11/2, u) / 2 over (0, sqrt(u))
    def half_lower(u):
        return 0.5 * math.exp(gammaln(5.5)) * gammainc(5.5, u)

    got = _gauss_segment(10, 0.0, 0.1).to_float()
    assert got == pytest.approx(half_lower(0.01), rel=1e-12, abs=0.0)
    got = _gauss_segment(10, -0.2, 0.1).to_float()
    assert got == pytest.approx(half_lower(0.04) + half_lower(0.01), rel=1e-12, abs=0.0)


def _random_bounds(rng, support):
    lo, hi = support
    left = lo if lo > -math.inf else -6.0
    right = hi if hi < math.inf else 8.0
    a, b = sorted(rng.uniform(left, right, size=2))
    return float(a), float(b) if a != b else (float(a), float(a) + 0.5)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: spec_string(m))
def test_segment_rules_agree_with_quadrature(model):
    kernel = kernel_form(model)
    rng = np.random.default_rng(abs(hash(model)) % 2**32)
    checks = 0
    while checks < 30:
        i = int(rng.integers(1, kernel.n + 1))
        j = int(rng.integers(1, kernel.n + 1))
        a, b = _random_bounds(rng, kernel.support)
        got = kernel.segment(i, j, a, b).to_float()
        want, err = quad(
            lambda x: kernel.point(i, j, x).to_float(), a, b, epsabs=1e-13, epsrel=1e-11
        )
        assert got == pytest.approx(want, rel=1e-9, abs=1e-13), (i, j, a, b)
        checks += 1


@pytest.mark.parametrize(
    "model",
    [UncorrelatedWishart(2, 4), SpikedWishart(2, 3, 3.0, 1.0), GUE(2)],
    ids=lambda m: spec_string(m),
)
def test_unbounded_segments_agree_with_quadrature(model):
    kernel = kernel_form(model)
    for i, j, a in [(1, 1, 0.5), (2, 1, 2.0), (2, 2, 1.0)]:
        got = kernel.segment(i, j, a, math.inf).to_float()
        want, _ = quad(lambda x: kernel.point(i, j, x).to_float(), a, np.inf)
        assert got == pytest.approx(want, rel=1e-9)
    if kernel.support[0] == -math.inf:
        got = kernel.segment(1, 2, -math.inf, -0.3).to_float()
        want, _ = quad(lambda x: kernel.point(1, 2, x).to_float(), -np.inf, -0.3)
        assert got == pytest.approx(want, rel=1e-9)


def test_gue_odd_power_negative_half_axis():
    # integral of x e^(-x^2) over the negative half-axis is -1/2
    table = kernel_form(GUE(2))
    got = table.segment(1, 2, -math.inf, 0.0).to_float()
    assert got == pytest.approx(-0.5, rel=1e-13)


def test_uncorrelated_trivial_full_mass():
    table = kernel_form(UncorrelatedWishart(1, 1))
    assert table.segment(1, 1, 0.0, math.inf).to_float() == pytest.approx(1.0)


def test_tilted_segments_match_quadrature():
    model = UncorrelatedWishart(2, 3)
    table = kernel_form(model)
    for tilt in [Tilt(power=2), Tilt(rate=0.3), Tilt(power=1, rate=-0.5)]:
        got = table.tilted_segment(1, 2, 0.0, math.inf, tilt).to_float()
        # the tail beyond 300 is far below the comparison tolerance
        want, _ = quad(lambda x: table.point(1, 2, x).to_float() * tilt(x), 0, 300.0)
        assert got == pytest.approx(want, rel=1e-9)


def test_tilt_divergence_rejected():
    table = kernel_form(UncorrelatedWishart(2, 2))
    with pytest.raises(ValueError, match="divergent"):
        table.tilted_segment(1, 1, 0.0, math.inf, Tilt(rate=1.0))


def test_constant_columns_match_hand_values():
    # one distinct inverse-covariance eigenvalue of multiplicity n reduces the
    # constant block to falling factorials of n-k
    model = CorrelatedWishart(2, 4, (2.0,), (4,))
    table = kernel_form(model)
    # row j has offset d(j) = 4 - j, rate 2; column k in 3..4
    for j in range(1, 5):
        for k in (3, 4):
            d = 4 - j
            a = 4 - k
            want = 1.0
            for t in range(d):
                want *= a - t
            want *= 2.0 ** (4 - k - d)
            assert table.const(j, k).to_float() == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError):
        table.const(1, 2)  # not a constant column


# -- normalization ---------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        UncorrelatedWishart(2, 2),
        GUE(3),
        Beta(2, 1, 2),
        SpikedWishart(3, 4, 2.0, 1.0),
        CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2)),
        CorrelatedWishart(3, 2, (2.0, 1.0), (1, 1)),
        NoncentralWishart(2, 3, (2.0,)),
    ],
    ids=lambda m: spec_string(m),
)
def test_normalization_check(model):
    assert normalization_check(model) == pytest.approx(1.0, abs=1e-8)


# -- kernel equivalences ----------------------------------------------------------


def test_spiked_matches_correlated_route():
    # the spiked kernel must agree with the general-correlation kernel built
    # from the same covariance spectrum
    spiked = kernel_form(SpikedWishart(3, 4, 2.0, 1.0))
    general = kernel_form(CorrelatedWishart(4, 3, (1.0, 0.5), (2, 1)))
    for xs in [(5.0, 2.0, 0.5), (9.0, 3.0, 1.0), (2.0, 1.0, 0.2)]:
        assert spiked.ordered_density(xs) == pytest.approx(
            general.ordered_density(xs), rel=1e-11
        )


def test_uncorrelated_matches_correlated_route():
    # identity covariance through the general route exercises the constant block
    plain = kernel_form(UncorrelatedWishart(2, 4))
    general = kernel_form(CorrelatedWishart(2, 4, (1.0,), (4,)))
    for xs in [(6.0, 2.0), (3.0, 0.5)]:
        assert plain.ordered_density(xs) == pytest.approx(
            general.ordered_density(xs), rel=1e-10
        )


def test_near_identity_correlation_tracks_uncorrelated_cdf():
    from eigendist.distributions import cdf_single

    eps = 1e-3
    n = 3
    corr = CorrelatedWishart(2, n, tuple(1.0 + eps * k for k in (3, 2, 1)), (1, 1, 1))
    plain = UncorrelatedWishart(2, n)
    for x in np.linspace(0.5, 9.0, 7):
        diff = abs(cdf_single(corr, 1, float(x)) - cdf_single(plain, 1, float(x)))
        assert diff < 1e-2


def test_direct_density_formula_m2():
    kf = kernel_form(UncorrelatedWishart(2, 2))
    x1, x2 = 2.0, 1.0
    want = (x1 - x2) ** 2 * math.exp(-x1 - x2)
    assert kf.ordered_density((x1, x2)) == pytest.approx(want, rel=1e-13)


# -- model validation --------------------------------------------------------------


def test_invalid_models_name_the_constraint():
    with pytest.raises(InvalidModelError, match="n >= dim"):
        UncorrelatedWishart(4, 3)
    with pytest.raises(InvalidModelError, match="sum 5 != n=6"):
        CorrelatedWishart(4, 6, (2.0, 1.0), (2, 3))
    with pytest.raises(InvalidModelError, match="strictly decreasing"):
        CorrelatedWishart(2, 2, (1.0, 2.0), (1, 1))
    with pytest.raises(InvalidModelError, match="sigma1 > sigma2"):
        SpikedWishart(4, 5, 1.0, 1.0)
    with pytest.raises(InvalidModelError, match="positive"):
        NoncentralWishart(2, 3, (2.0, -1.0))
    with pytest.raises(InvalidModelError, match="strictly decreasing"):
        NoncentralWishart(2, 3, (2.0, 2.0))
    with pytest.raises(InvalidModelError, match="nonnegative"):
        Beta(2, -1, 2)
    with pytest.raises(InvalidModelError, match=">= 1"):
        GUE(0)


def test_spiked_conditioning_warning():
    with pytest.warns(ConditioningWarning):
        SpikedWishart(2, 3, 1.0 + 1e-8, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SpikedWishart(2, 3, 2.0, 1.0)  # well separated: no warning


# -- trace identities ---------------------------------------------------------------


def test_mean_eigenvalue_sums():
    assert mean_eigenvalue_sum(UncorrelatedWishart(4, 5)) == 20.0
    assert mean_eigenvalue_sum(CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2))) == pytest.approx(5.0)
    assert mean_eigenvalue_sum(SpikedWishart(3, 4, 2.0, 1.0)) == pytest.approx(16.0)
    assert mean_eigenvalue_sum(NoncentralWishart(2, 3, (2.0,))) == pytest.approx(8.0)
    assert mean_eigenvalue_sum(GUE(5)) == 0.0
    assert mean_eigenvalue_sum(Beta(2, 1, 1)) is None


# -- flat spec parsing ----------------------------------------------------------------


def test_parse_spec_examples():
    model = parse_spec("correlated-wishart p=4 n=6 phi=2.0,1.0 mult=2,4")
    assert model == CorrelatedWishart(4, 6, (2.0, 1.0), (2, 4))
    model = parse_spec("ensemble=uncorrelated-wishart M=4 n=5")
    assert model == UncorrelatedWishart(4, 5)
    model = parse_spec("beta M=2 m=1 n=3")
    assert model == Beta(2, 1, 3)
    model = parse_spec("noncentral-wishart M=2 n=3 mu=2.0")
    assert model == NoncentralWishart(2, 3, (2.0,))


def test_parse_spec_errors():
    with pytest.raises(InvalidModelError, match="sum 5 != n=6"):
        parse_spec("correlated-wishart p=4 n=6 phi=2.0,1.0 mult=2,3")
    with pytest.raises(InvalidModelError, match="multiplicities must be integers"):
        parse_spec("correlated-wishart p=2 n=5 phi=2,1 mult=2.9,3")
    with pytest.raises(InvalidModelError, match="sigma1 > sigma2"):
        parse_spec("spiked-wishart M=4 n=5 sigma1=1 sigma2=1")
    with pytest.raises(ValueError, match="unknown ensemble"):
        parse_spec("triangular M=2")
    with pytest.raises(ValueError, match="missing required key 'n'"):
        parse_spec("uncorrelated-wishart M=2")
    with pytest.raises(ValueError, match="unknown keys"):
        parse_spec("gue M=2 n=3")


def test_spec_string_round_trips():
    for model in MODELS + [SpikedWishart(4, 5, 10.123456789, 1.0)]:
        assert parse_spec(spec_string(model)) == model
