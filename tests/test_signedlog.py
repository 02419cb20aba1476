"""Arithmetic checks for the sign-tracked log-scale scalar."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from eigendist.signedlog import SignedLog, SignedLogSum, signed_logsumexp

finite_vals = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).filter(lambda v: v == 0.0 or abs(v) > 1e-12)


def test_zero_convention():
    z = SignedLog.of(0.0)
    assert z.sign == 0 and z.logmag == -math.inf
    assert z.to_float() == 0.0
    with pytest.raises(ValueError):
        SignedLog(0, 1.0)
    with pytest.raises(ValueError):
        SignedLog(1, -math.inf)
    with pytest.raises(ValueError):
        SignedLog(2, 0.0)


@given(finite_vals, finite_vals)
def test_mul_matches_float(a, b):
    got = (SignedLog.of(a) * SignedLog.of(b)).to_float()
    assert got == pytest.approx(a * b, rel=1e-12, abs=1e-300)


def _stored_error(v):
    # SignedLog.of(v) keeps ln|v| to within an ulp, so exp of it is off by up
    # to eps |v| |ln|v||, and each exp, log and the sum r in __add__ add a
    # rounding of at most eps times the magnitude it scales.  The exponent
    # lo.logmag - hi.logmag is off by eps (|ln|lo|| + |ln|hi||), times |lo|
    # in the sum; |lo| |ln|hi|| <= |lo| |ln|lo|| + |hi| |ln|hi|| since
    # |lo| <= |hi|.  A cancelling sum keeps these absolute errors.
    return sys.float_info.epsilon * abs(v) * (abs(math.log(abs(v))) + 2.0) if v else 0.0


@given(finite_vals, finite_vals)
@example(a=853559.538754927, b=-853055.0)
def test_add_matches_float(a, b):
    got = (SignedLog.of(a) + SignedLog.of(b)).to_float()
    assert got == pytest.approx(a + b, rel=1e-12, abs=_stored_error(a) + _stored_error(b))


@given(finite_vals)
def test_neg_and_sub(a):
    x = SignedLog.of(a)
    assert (x - x).sign == 0
    assert (-x).to_float() == pytest.approx(-a, rel=1e-12)


def test_huge_magnitudes_survive():
    big = SignedLog.from_log(1000.0)
    prod = big * big
    assert prod.logmag == pytest.approx(2000.0)
    assert prod.to_float() == math.inf  # only the conversion saturates


def test_integer_powers():
    x = SignedLog.of(-2.0)
    assert (x ** 3).to_float() == pytest.approx(-8.0)
    assert (x ** 0).to_float() == 1.0
    assert (x ** -2).to_float() == pytest.approx(0.25)
    with pytest.raises(ZeroDivisionError):
        SignedLog.zero() ** -1


def test_division():
    a = SignedLog.of(6.0)
    b = SignedLog.of(-2.0)
    assert (a / b).to_float() == pytest.approx(-3.0)
    with pytest.raises(ZeroDivisionError):
        a / SignedLog.zero()


def test_signed_logsumexp_mixed_signs():
    vals = np.array([3.0, -1.0, 0.5, -2.5])
    total = signed_logsumexp(np.sign(vals), np.log(np.abs(vals)))
    assert total.to_float() == pytest.approx(vals.sum())


def test_accumulator_rescales_across_chunks():
    acc = SignedLogSum()
    acc.add_terms(np.array([1.0, -1.0]), np.array([0.0, 0.0]))  # cancels
    acc.add_terms(np.array([1.0]), np.array([500.0]))
    acc.add_terms(np.array([-1.0]), np.array([499.0]))
    total = acc.total()
    # exp(500) - exp(499) = exp(499) (e - 1)
    assert total.sign == 1
    assert total.logmag == pytest.approx(499.0 + math.log(math.e - 1.0), rel=1e-14)


def test_accumulator_exact_cancellation():
    acc = SignedLogSum()
    acc.add(SignedLog.of(7.5))
    acc.add(SignedLog.of(-7.5))
    assert acc.total().sign == 0


def test_nan_rejected():
    with pytest.raises(ValueError):
        SignedLog.of(float("nan"))
    with pytest.raises(ValueError):
        SignedLog(1, float("nan"))
