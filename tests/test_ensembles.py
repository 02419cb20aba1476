"""Kernel decompositions: constants, segment rules, and model validation."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

import eigendist.distributions as dist
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
from eigendist.distributions import (
    expect_product_unordered,
    joint_pdf_ordered,
    mgf_unordered,
    moments_unordered,
)
from eigendist.errors import ConditioningWarning, InvalidModelError, NumericError
from eigendist.pseudodet import _batch_det
from eigendist.signedlog import SignedLog


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


def _row_product(kernel, rows, i, j, col):
    # entry (i, j) at abscissa ``col`` of ``rows = kernel.rows(xs)`` is
    # phi_i * xi * psi_j, with bare xi on the rows past m
    (phi_signs, phi_logs), (psi_signs, psi_logs), log_xi = rows
    sign, log = psi_signs[j - 1, col], log_xi[col] + psi_logs[j - 1, col]
    if i <= kernel.m:
        sign, log = sign * phi_signs[i - 1, col], phi_logs[i - 1, col] + log
    return SignedLog.from_log(log, sign)


def _point_entry(point, i, j, tilt=Tilt()):
    """Entry (i, j) of the point slice ``point(x)`` times the tilt, as a
    function of x, composed in log form: x^2 e^(rate x) alone overflows far
    out."""

    def f(x):
        signs, logs = point(x)
        sign = signs[i - 1, j - 1] * (-1 if x < 0 and tilt.power % 2 else 1)
        log_tilt = tilt.power * math.log(abs(x)) if tilt.power else 0.0
        out = sign * math.exp(logs[i - 1, j - 1] + log_tilt + tilt.rate * x) if sign else 0.0
        return out * tilt.fn(x) if tilt.fn is not None else out

    return f


def _quad_entry(kernel, i, j, a, b, tilt=Tilt(), point=None, **opts):
    """Reference segment entry: quad of the point slice over (a, b) within the
    support, split at the origin, where odd powers change sign."""
    lo, hi = max(a, kernel.support[0]), min(b, kernel.support[1])
    f = _point_entry(point or kernel.slice, i, j, tilt)
    pieces = [(lo, min(hi, 0.0)), (max(lo, 0.0), hi)]
    return sum(quad(f, u, v, **opts)[0] for u, v in pieces if u < v)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: spec_string(m))
def test_point_rule_matches_row_functions(model):
    kernel = kernel_form(model)
    xs = _abscissae(kernel.support)
    rows = kernel.rows(np.array(xs))
    for col, x in enumerate(xs):
        signs, logs = kernel.slice(x)
        for i in range(1, kernel.n + 1):
            for j in range(1, kernel.n + 1):
                want = _row_product(kernel, rows, i, j, col)
                assert signs[i - 1, j - 1] == want.sign, (i, j, x)
                assert logs[i - 1, j - 1] == pytest.approx(want.logmag, rel=1e-14), (i, j, x)


SLICE_MODELS = MODELS + [
    UncorrelatedWishart(8, 10),
    SpikedWishart(6, 10, 10.0, 1.0),
    CorrelatedWishart(4, 6, (2.0, 1.0), (2, 4)),
    NoncentralWishart(3, 4, (3.0, 0.5)),
]

NARROW = 1e-4


def _peak(x):
    # a callable factor peaked at x = 0.5, where the low powers carry the
    # integrand: entries ten digits below the largest still need their own
    # relative accuracy
    return 1.0 / (1.0 + 100.0 * (x - 0.5) ** 2)


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
    tilts = [Tilt(power=2), Tilt(rate=rate), Tilt(rate=-0.3), Tilt(fn=_peak)]
    return points + [(a, b, Tilt()) for a, b in segments] + [(lo, hi, t) for t in tilts]


@pytest.mark.parametrize("model", SLICE_MODELS, ids=lambda m: spec_string(m))
def test_slices_match_entry_rules(model):
    kernel = kernel_form(model)
    # the per-entry references revisit the same quadrature nodes
    point = functools.lru_cache(maxsize=None)(kernel.slice)
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
                    value = _quad_entry(
                        kernel, i, j, *key, point=point, epsabs=0.0, epsrel=1e-13, limit=200
                    )
                    want = SignedLog.of(value)
                else:
                    want = _row_product(kernel, kernel.rows(np.array([key])), i, j, 0)
                assert signs[i - 1, j - 1] == want.sign, (key, i, j)
                got = logs[i - 1, j - 1]
                assert got == pytest.approx(want.logmag, rel=rel, abs=rel), (key, i, j)


@pytest.mark.parametrize("model", SLICE_MODELS, ids=lambda m: spec_string(m))
def test_stacked_segments_below_and_above_equal_each_alone(model):
    # one pass over (lo, x) and (x, hi) at every x tables each x once, as
    # a density pass at quadrature nodes fills them; each slice is the one
    # filled apart, bit for bit
    kernel = kernel_form(model)
    lo, hi = kernel.support
    xs = np.array(_abscissae(kernel.support) * 2)
    ends = (np.concatenate((np.full(len(xs), lo), xs)), np.concatenate((xs, np.full(len(xs), hi))))
    signs, logs = kernel.slice((*ends, Tilt()))
    for row, (a, b) in enumerate(zip(*ends)):
        alone = kernel.slice((float(a), float(b), Tilt()))
        assert signs[row].tobytes() == alone[0].tobytes(), (a, b)
        assert logs[row].tobytes() == alone[1].tobytes(), (a, b)


@pytest.mark.parametrize("model", SLICE_MODELS, ids=lambda m: spec_string(m))
def test_end_determinants_equal_stacked_raw_blocks(model):
    # the end determinants gather scaled rows from the operator's row table;
    # each is the determinant of its raw block stacked on the constant rows,
    # sign and log bit for bit
    kernel = kernel_form(model)
    lo, hi = kernel.support
    xs = np.array(_abscissae(kernel.support))
    blocks, signs, logs = dist._end_determinants(kernel, [(lo, xs), (xs, hi)], len(xs))
    const_signs, const_logs = kernel.const_rows
    for col, (a, b) in enumerate([(np.full(len(xs), lo), xs), (xs, np.full(len(xs), hi))]):
        block_signs, block_logs = kernel.slice((a, b, Tilt()))
        assert blocks[col][0].tobytes() == block_signs[:, : kernel.m].tobytes()
        assert blocks[col][1].tobytes() == block_logs[:, : kernel.m].tobytes()
        stacked = [
            np.concatenate([block[:, : kernel.m], np.broadcast_to(const, (len(xs),) + const.shape)], axis=1)
            for block, const in ((block_signs, const_signs), (block_logs, const_logs))
        ]
        want_signs, want_logs = _batch_det(*stacked)
        assert signs[:, col].tobytes() == want_signs.tobytes(), (a, b)
        assert logs[:, col].tobytes() == want_logs.tobytes(), (a, b)


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
                    f = _point_entry(kernel.slice, i, j, tilt)
                    want, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
                    got = signs[i - 1, j - 1] * math.exp(logs[i - 1, j - 1])
                    assert got == pytest.approx(want, rel=1e-10), (tilt, a, b, i, j)
    assert normalization_check(model) == pytest.approx(1.0, abs=1e-12)


def test_noncentral_series_past_the_row_scaling_raises():
    # rows are scaled by their largest entry, the e^mu-sized series column,
    # so at mu = 1000 the plain columns underflow and the full-support
    # determinant that fixes the normalizer reads 0
    with pytest.raises(NumericError, match=r"NoncentralWishart\(dim=3, n=4, mu=\(1000.0, 0.5\)\): the full-support"):
        kernel_form(NoncentralWishart(3, 4, (1000.0, 0.5)))
    assert normalization_check(NoncentralWishart(3, 4, (700.0, 0.5))) == pytest.approx(1.0, abs=1e-12)


def test_noncentral_segment_series_past_its_terms_raises():
    # over (5e4, 6e4) the terms peak near k ~ sqrt(mu x) ~ 6000, past the
    # series' 4096 terms
    kernel = kernel_form(NoncentralWishart(3, 4, (700.0, 0.5)))
    with pytest.raises(NumericError, match=r"noncentral series stalled on \(50000.0, 60000.0\)"):
        kernel.slice((5e4, 6e4, Tilt()))


def _slice_entry(kernel, key, i, j):
    signs, logs = kernel.slice(key)
    return signs[i - 1, j - 1] * math.exp(logs[i - 1, j - 1])


def test_gauss_segment_near_the_origin():
    # x^10 e^(-x^2) integrates to gamma(11/2, u) / 2 over (0, sqrt(u))
    def half_lower(u):
        return 0.5 * math.exp(gammaln(5.5)) * gammainc(5.5, u)

    # entry (6, 6) of GUE(6) carries x^10
    kernel = kernel_form(GUE(6))
    got = _slice_entry(kernel, (0.0, 0.1, Tilt()), 6, 6)
    assert got == pytest.approx(half_lower(0.01), rel=1e-12, abs=0.0)
    got = _slice_entry(kernel, (-0.2, 0.1, Tilt()), 6, 6)
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
        got = _slice_entry(kernel, (a, b, Tilt()), i, j)
        want, err = quad(_point_entry(kernel.slice, i, j), a, b, epsabs=1e-13, epsrel=1e-11)
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
        got = _slice_entry(kernel, (a, math.inf, Tilt()), i, j)
        want, _ = quad(_point_entry(kernel.slice, i, j), a, np.inf)
        assert got == pytest.approx(want, rel=1e-9)
    if kernel.support[0] == -math.inf:
        got = _slice_entry(kernel, (-math.inf, -0.3, Tilt()), 1, 2)
        want, _ = quad(_point_entry(kernel.slice, 1, 2), -np.inf, -0.3)
        assert got == pytest.approx(want, rel=1e-9)


def test_gue_odd_power_negative_half_axis():
    # integral of x e^(-x^2) over the negative half-axis is -1/2
    table = kernel_form(GUE(2))
    got = _slice_entry(table, (-math.inf, 0.0, Tilt()), 1, 2)
    assert got == pytest.approx(-0.5, rel=1e-13)


def test_uncorrelated_trivial_full_mass():
    table = kernel_form(UncorrelatedWishart(1, 1))
    assert _slice_entry(table, (0.0, math.inf, Tilt()), 1, 1) == pytest.approx(1.0)


def test_tilted_segments_match_quadrature():
    model = UncorrelatedWishart(2, 3)
    table = kernel_form(model)
    for tilt in [Tilt(power=2), Tilt(rate=0.3), Tilt(power=1, rate=-0.5)]:
        got = _slice_entry(table, (0.0, math.inf, tilt), 1, 2)
        # the tail beyond 300 is far below the comparison tolerance
        want, _ = quad(lambda x: _point_entry(table.slice, 1, 2)(x) * tilt(x), 0, 300.0)
        assert got == pytest.approx(want, rel=1e-9)


def test_tilt_divergence_rejected():
    table = kernel_form(UncorrelatedWishart(2, 2))
    with pytest.raises(ValueError, match="divergent"):
        table.slice((0.0, math.inf, Tilt(rate=1.0)))


# -- tilts with no closed form ------------------------------------------------------


@pytest.mark.parametrize("model", MODELS, ids=lambda m: spec_string(m))
def test_callable_factor_matches_moment(model):
    m = kernel_form(model).m
    got = expect_product_unordered(model, [lambda x: x] + [None] * (m - 1))
    want = moments_unordered(model, (1,) + (0,) * (m - 1))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "model", [m for m in MODELS if not isinstance(m, (GUE, Beta))], ids=lambda m: spec_string(m)
)
def test_callable_exponential_matches_mgf(model):
    kernel = kernel_form(model)
    for nu in (0.25 * kernel.max_exp_rate, -0.3):
        got = expect_product_unordered(model, [lambda x: math.exp(nu * x)] * kernel.m)
        assert got == pytest.approx(mgf_unordered(model, (nu,) * kernel.m), rel=1e-12), nu


@pytest.mark.parametrize("m, nu", [(3, 0.3), (3, -0.3), (2, 10.0)])
def test_gue_mgf_matches_gaussian_trace(m, nu):
    # the trace is normal with variance m/2 under the weight e^(-x^2); at
    # nu = 10, e^(nu x) alone overflows at the far quadrature nodes
    got = mgf_unordered(GUE(m), (nu,) * m)
    assert got == pytest.approx(math.exp(m * nu * nu / 4.0), rel=1e-12)


# -- beta segments around the middle of the support ----------------------------------


@pytest.mark.parametrize("a, b", [(0.5, 0.5001), (0.49, 0.51)])
def test_beta_slices_around_the_middle_match_quadrature(a, b):
    # no expansion about either endpoint keeps alternating binomial terms
    # small here; both segments lie below the means of x^p (1-x)^3
    kernel = kernel_form(Beta(8, 3, 3))
    tilt = Tilt(power=2)
    signs, logs = kernel.slice((a, b, tilt))
    for i in range(1, kernel.n + 1):
        for j in range(1, kernel.n + 1):
            want = _quad_entry(kernel, i, j, a, b, tilt, epsabs=0.0, epsrel=1e-13)
            got = signs[i - 1, j - 1] * math.exp(logs[i - 1, j - 1])
            assert got == pytest.approx(want, rel=1e-11, abs=0.0), (i, j)


@pytest.mark.parametrize(
    "model, tol", [(Beta(8, 3, 3), 5e-5), (Beta(6, 0, 0), 5e-10)], ids=["beta-8-3-3", "beta-6-0-0"]
)
def test_beta_normalization_of_ill_conditioned_kernels(model, tol):
    # the full-support entries are beta functions to a few ulp; what is left
    # is the conditioning of the Hankel determinant
    assert abs(normalization_check(model) - 1.0) < tol


def test_constant_columns_match_hand_values():
    # one distinct inverse-covariance eigenvalue of multiplicity n reduces the
    # constant block to falling factorials of n-k
    model = CorrelatedWishart(2, 4, (2.0,), (4,))
    signs, logs = kernel_form(model).const_rows
    # row j has offset d(j) = 4 - j, rate 2; column k in 3..4
    for j in range(1, 5):
        for k in (3, 4):
            d = 4 - j
            a = 4 - k
            want = 1.0
            for t in range(d):
                want *= a - t
            want *= 2.0 ** (4 - k - d)
            got = signs[k - 3, j - 1] * math.exp(logs[k - 3, j - 1])
            assert got == pytest.approx(want, rel=1e-13)


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


def _density_points(support, m):
    """Two ordered interior points, then an unordered one, an infinite one
    and, where the support has a finite end, one just outside it."""
    lo, hi = support
    if lo == -math.inf:
        ordered = [(2.2, 0.4, -1.7), (1.1, -0.3, -0.9)]
    elif hi == 1.0:
        ordered = [(0.85, 0.5, 0.15), (0.7, 0.45, 0.3)]
    else:
        ordered = [(7.5, 2.0, 0.3), (4.0, 1.2, 0.6)]
    top = ordered[0][:m]
    zero = [top[::-1], (math.inf,) + top[1:]]
    if hi == 1.0:
        zero.append((1.5,) + top[1:])
    elif lo == 0.0:
        zero.append(top[:-1] + (-1.0,))
    return [p[:m] for p in ordered], zero


@pytest.mark.parametrize("model", MODELS, ids=lambda m: spec_string(m))
def test_direct_density_matches_engine(model):
    # the direct evaluation and the operator agree inside the ordered
    # support, and are both 0 outside it
    kernel = kernel_form(model)
    ranks = tuple(range(1, kernel.m + 1))
    inside, outside = _density_points(kernel.support, kernel.m)
    for xs in inside:
        want = joint_pdf_ordered(model, ranks, xs)
        assert want > 0.0
        assert kernel.ordered_density(xs) == pytest.approx(want, rel=1e-11), xs
    for xs in outside:
        assert joint_pdf_ordered(model, ranks, xs) == 0.0, xs
        assert kernel.ordered_density(xs) == 0.0, xs


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
    # integer fields take integral values only, and real fields finite ones
    with pytest.raises(InvalidModelError, match="n must be an integer, got 3.5"):
        UncorrelatedWishart(2, 3.5)
    with pytest.raises(InvalidModelError, match="n must be an integer, got 3.5"):
        SpikedWishart(2, 3.5, 2.0, 1.0)
    with pytest.raises(InvalidModelError, match="n must be an integer, got 3.5"):
        NoncentralWishart(2, 3.5, (1.0,))
    with pytest.raises(InvalidModelError, match="dim must be an integer, got 2.5"):
        GUE(2.5)
    with pytest.raises(InvalidModelError, match="dim must be an integer, got nan"):
        GUE(math.nan)
    with pytest.raises(InvalidModelError, match="p must be an integer"):
        CorrelatedWishart(2.5, 3, (2.0, 1.0), (1, 2))
    with pytest.raises(InvalidModelError, match="m must be an integer"):
        Beta(2, 1.5, 2)
    with pytest.raises(InvalidModelError, match="sigma1 must be finite, got inf"):
        SpikedWishart(2, 3, math.inf, 1.0)
    with pytest.raises(InvalidModelError, match="sigma2 must be finite, got nan"):
        SpikedWishart(2, 3, 2.0, math.nan)
    with pytest.raises(InvalidModelError, match="mu must be finite"):
        NoncentralWishart(2, 3, (math.inf,))
    with pytest.raises(InvalidModelError, match="phi must be finite"):
        CorrelatedWishart(2, 3, (math.nan, 1.0), (1, 2))


def test_integral_fields_are_stored_as_int():
    for model in (GUE(3.0), GUE(np.int64(3)), UncorrelatedWishart(np.int32(3), 5.0), Beta(3, 1.0, np.int64(2))):
        assert all(type(getattr(model, f)) is int for f in model.__dataclass_fields__), model
    model = SpikedWishart(4, 5, 10, np.float64(1.0))
    assert type(model.sigma1) is float and type(model.sigma2) is float
    assert model == SpikedWishart(4, 5, 10.0, 1.0)


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
    with pytest.raises(ValueError, match="key 'M' appears twice"):
        parse_spec("gue M=2 M=3")
    with pytest.raises(ValueError, match="names two ensembles, 'gue' and 'beta'"):
        parse_spec("gue ensemble=beta M=2 m=1 n=1")
    with pytest.raises(ValueError, match="key 'phi' must be a comma-separated number list, got '2,,1'"):
        parse_spec("correlated-wishart p=2 n=3 phi=2,,1 mult=1,2")
    with pytest.raises(InvalidModelError, match="mu must be finite"):
        parse_spec("noncentral-wishart M=2 n=3 mu=inf")


def test_spec_string_round_trips():
    for model in MODELS + [SpikedWishart(4, 5, 10.123456789, 1.0)]:
        assert parse_spec(spec_string(model)) == model


def test_spec_string_text_is_pinned():
    # CSV headers and the benchmark's CLI flags carry this text
    assert spec_string(SpikedWishart(4, 5, 10.123456789, 1.0)) == "spiked-wishart M=4 n=5 sigma1=10.123456789 sigma2=1"
    model = CorrelatedWishart(4, 6, (2.5, 0.1), (2.0, 4))
    assert spec_string(model) == "correlated-wishart p=4 n=6 phi=2.5,0.1 mult=2,4"
    assert spec_string(NoncentralWishart(3, 4, (3.0, 0.25))) == "noncentral-wishart M=3 n=4 mu=3,0.25"
    assert spec_string(Beta(np.int64(3), 1, 2)) == "beta M=3 m=1 n=2"
