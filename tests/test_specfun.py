"""Special-function checks against quadrature and direct-series oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammaln

from eigendist.errors import NumericError
from eigendist.specfun import (
    gamma_whole,
    hyp0f1,
    incomplete_gamma_table,
    log_gamma_range,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)


def quad_upper_gamma(s, x):
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(lambda t: t ** (s - 1) * math.exp(-t), x, np.inf)
    return val


def quad_segment_gamma(s, x1, x2):
    val, _ = quad(lambda t: t ** (s - 1) * math.exp(-t), x1, x2)
    return val


def series_0f1(b, z, terms=200):
    """Direct term-by-term summation oracle."""
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= z / ((b + k) * (k + 1))
        total += term
    return total


# -- upper incomplete gamma --------------------------------------------------


def test_upper_gamma_trivials():
    assert upper_incomplete_gamma(1.0, 0.0).to_float() == pytest.approx(1.0)
    assert upper_incomplete_gamma(3.0, 0.0).to_float() == pytest.approx(2.0)
    assert upper_incomplete_gamma(1.0, 2.0).to_float() == pytest.approx(math.exp(-2.0))


@pytest.mark.parametrize(
    "s,x",
    [(2.5, 1.3), (0.5, 0.7), (1.5, 4.0), (7.5, 2.2), (3.0, 9.0), (12.0, 3.3), (4.7, 1.9)],
)
def test_upper_gamma_vs_quadrature(s, x):
    got = upper_incomplete_gamma(s, x).to_float()
    assert got == pytest.approx(quad_upper_gamma(s, x), rel=1e-10)


def test_upper_gamma_deep_tail_no_underflow():
    v = upper_incomplete_gamma(3.0, 800.0)
    assert v.sign == 1
    # Gamma(3, x) = e^-x (x^2 + 2x + 2)
    expected = -800.0 + math.log(800.0**2 + 2 * 800.0 + 2)
    assert v.logmag == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s", [401.0, 600.0])
def test_upper_gamma_large_integer_shape(s):
    # every integer shape takes the finite sum, however large
    for x in (0.5 * s, s - 20.0, s + 20.0, 1.5 * s):
        got = upper_incomplete_gamma(s, x)
        assert got.sign == 1
        assert got.logmag == pytest.approx(gammaln(s) + math.log(gammaincc(s, x)), rel=1e-12)


def test_half_integer_seed():
    # Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x))
    got = upper_incomplete_gamma(0.5, 2.0).to_float()
    assert got == pytest.approx(math.sqrt(math.pi) * math.erfc(math.sqrt(2.0)), rel=1e-12)


# -- lower incomplete gamma --------------------------------------------------


def test_lower_gamma_trivials():
    assert lower_incomplete_gamma(1.0, 700.0).to_float() == pytest.approx(1.0, abs=1e-12)
    assert lower_incomplete_gamma(4.0, 0.0).sign == 0


@pytest.mark.parametrize("s,x", [(4.0, 2.0), (2.5, 5.0), (1.0, 0.3), (9.0, 30.0)])
def test_lower_gamma_vs_quadrature(s, x):
    got = lower_incomplete_gamma(s, x).to_float()
    assert got == pytest.approx(quad_segment_gamma(s, 0.0, x), rel=1e-10)


# -- shape-family tables -----------------------------------------------------


@pytest.mark.parametrize("s0", [0.5, 1.0])
@pytest.mark.parametrize("y", [1e-300, 1e-3, 0.4, 3.0, 19.5, 40.0, 120.0])
def test_gamma_table_vs_scipy(s0, y):
    shapes = s0 + np.arange(48)
    upper, lower = incomplete_gamma_table(s0, 48, y)
    for got, frac in ((upper, gammaincc(shapes, y)), (lower, gammainc(shapes, y))):
        ok = frac > 0.0  # the references underflow where the tables do not
        want = gammaln(shapes[ok]) + np.log(frac[ok])
        np.testing.assert_allclose(got[ok], want, rtol=1e-13, atol=1e-13)


def test_kept_log_gamma_tables_are_gammaln_bit_for_bit():
    # 8192 covers the noncentral series (up to 4096 terms past its first
    # shape) and the widest incomplete-gamma table the kernels build
    n = 8192
    assert log_gamma_range(1.0, 0, n).tobytes() == gammaln(np.arange(1.0, n + 1.0)).tobytes()
    assert log_gamma_range(0.5, 0, n).tobytes() == gammaln(np.arange(0.5, n)).tobytes()
    # the integer family reads +inf at the poles 0, -1 and -2
    assert log_gamma_range(1.0, -3, 2).tobytes() == gammaln([-2.0, -1.0, 0.0, 1.0, 2.0]).tobytes()
    assert np.all(log_gamma_range(1.0, -3, 0) == math.inf)
    with pytest.raises(ValueError, match="read-only"):
        log_gamma_range(1.0, 0, 4)[0] = 1.0
    with pytest.raises(ValueError):
        log_gamma_range(0.5, -1, 2)
    with pytest.raises(ValueError):
        log_gamma_range(2.0, 0, 2)


@pytest.mark.parametrize("s0", [0.5, 1.0])
def test_gamma_table_edges(s0):
    shapes = s0 + np.arange(5)
    whole = gammaln(shapes)
    upper, lower = incomplete_gamma_table(s0, 5, 0.0)
    assert np.array_equal(upper, whole) and np.all(lower == -np.inf)
    upper, lower = incomplete_gamma_table(s0, 5, math.inf)
    assert np.all(upper == -np.inf) and np.array_equal(lower, whole)
    # far below every shape the lower values follow y^s / s
    _, lower = incomplete_gamma_table(s0, 5, 1e-300)
    np.testing.assert_allclose(lower, shapes * math.log(1e-300) - np.log(shapes), rtol=1e-14)
    # far above every shape the upper values match the scalar finite sum / climb
    upper, _ = incomplete_gamma_table(s0, 5, 800.0)
    want = [upper_incomplete_gamma(s, 800.0).logmag for s in shapes]
    np.testing.assert_allclose(upper, want, rtol=1e-14)


@pytest.mark.parametrize("s0", [0.5, 1.0])
def test_gamma_table_repeated_limits_equal_each_alone(s0):
    # a pass over the segments (0, x) and (x, inf) meets every x twice, and
    # each limit is tabled once; its rows read the value it gets alone
    limits = [3.0, 0.0, 3.0, math.inf, 0.4, 120.0, 0.4, 0.0, 3.0, math.inf, 1e-300]
    upper, lower = incomplete_gamma_table(s0, 12, limits)
    for row, y in enumerate(limits):
        alone = incomplete_gamma_table(s0, 12, y)
        assert upper[row].tobytes() == alone[0].tobytes(), y
        assert lower[row].tobytes() == alone[1].tobytes(), y


def test_gamma_table_rejects_bad_args():
    with pytest.raises(ValueError):
        incomplete_gamma_table(1.5, 3, 1.0)
    with pytest.raises(ValueError):
        incomplete_gamma_table(1.0, 0, 1.0)
    with pytest.raises(ValueError):
        incomplete_gamma_table(1.0, 3, -1.0)
    with pytest.raises(ValueError):
        incomplete_gamma_table(1.0, 3, math.nan)


def test_stalled_series_are_numeric_errors():
    # past the iteration cap; the CLI maps a NumericError to exit code 4
    with pytest.raises(NumericError, match="0F1 series stalled"):
        hyp0f1(2.0, 1.2e8)
    with pytest.raises(NumericError, match="lower incomplete gamma series stalled"):
        lower_incomplete_gamma(1e8 + 0.5, 1e8)
    with pytest.raises(NumericError, match="upper incomplete gamma fraction stalled"):
        upper_incomplete_gamma(1e12 + 0.25, 1e12 + 2.0)


# -- stated identity grids ---------------------------------------------------


GRID = np.geomspace(1e-3, 50.0, 25)


@pytest.mark.parametrize("s", range(1, 31))
def test_complementarity_identity(s):
    whole = gamma_whole(float(s))
    for x in GRID:
        total = upper_incomplete_gamma(s, x) + lower_incomplete_gamma(s, x)
        assert total.to_float() == pytest.approx(whole.to_float(), rel=1e-12)


@pytest.mark.parametrize("s", range(1, 31))
def test_recurrence_identity(s):
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x
    for x in GRID:
        lhs = upper_incomplete_gamma(s + 1.0, x)
        rhs = upper_incomplete_gamma(float(s), x).scaled(float(s)) + (
            type(lhs).from_log(s * math.log(x) - x)
        )
        assert lhs.to_float() == pytest.approx(rhs.to_float(), rel=1e-12)


@pytest.mark.parametrize("s", [1.0, 2.5, 6.0, 14.5])
def test_monotonicity(s):
    upper_vals = [upper_incomplete_gamma(s, x).to_float() for x in GRID]
    lower_vals = [lower_incomplete_gamma(s, x).to_float() for x in GRID]
    assert all(a >= b for a, b in zip(upper_vals, upper_vals[1:]))
    assert all(a <= b for a, b in zip(lower_vals, lower_vals[1:]))


# -- 0F1 ----------------------------------------------------------------------


def test_0f1_trivials():
    assert hyp0f1(3.0, 0.0).to_float() == 1.0
    # 0F1(1, 1) = sum 1/(k!)^2
    direct = sum(1.0 / math.factorial(k) ** 2 for k in range(50))
    assert hyp0f1(1.0, 1.0).to_float() == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("b", [1.0, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("z", [0.1, 1.0, 4.0, 25.0, 100.0])
def test_0f1_vs_direct_series(b, z):
    assert hyp0f1(b, z).to_float() == pytest.approx(series_0f1(b, z), rel=1e-12)


def test_0f1_huge_argument_stays_finite():
    v = hyp0f1(2.0, 1e6)
    assert v.sign == 1 and math.isfinite(v.logmag)
    # asymptotically log 0F1(b, z) ~ 2 sqrt(z) for large z
    assert v.logmag == pytest.approx(2 * math.sqrt(1e6), rel=1e-2)


def test_0f1_rejects_bad_args():
    with pytest.raises(ValueError):
        hyp0f1(0.0, 1.0)
    with pytest.raises(ValueError):
        hyp0f1(-2.0, 1.0)
    with pytest.raises(ValueError):
        hyp0f1(1.0, -1.0)


# -- argument validation -------------------------------------------------------


def test_gamma_rejects_bad_args():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(2.0, -0.5)
