"""Special functions returned in signed-log form.

The kernel integrals reduce to upper/lower incomplete gamma functions with
integer or half-integer shape, their two-limit difference, the confluent
limit series 0F1, and falling factorials.  Everything here is scalar and
pure; the split between series, finite recurrence, and continued fraction
follows the usual cancellation-avoidance boundary at ``x = s + 1``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx

from .signedlog import SignedLog, signed_logsumexp

__all__ = [
    "log_gamma",
    "gamma_whole",
    "upper_incomplete_gamma",
    "lower_incomplete_gamma",
    "two_limit_gamma",
    "hyp0f1",
    "falling_factorial",
    "log_factorial",
]

_EPS = 1e-17
_MAX_ITER = 10_000


def log_gamma(s: float) -> float:
    if s <= 0:
        raise ValueError(f"gamma shape must be positive, got {s}")
    return math.lgamma(s)


def log_factorial(n: int) -> float:
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.lgamma(n + 1)


def gamma_whole(s: float) -> SignedLog:
    """Complete gamma function."""
    return SignedLog.from_log(log_gamma(s))


def _check_gamma_args(s: float, x: float) -> None:
    if s <= 0:
        raise ValueError(f"gamma shape must be positive, got {s}")
    if x < 0 or not math.isfinite(x):
        raise ValueError(f"gamma limit must be finite and nonnegative, got {x}")


def _is_int(s: float) -> bool:
    return s == math.floor(s)


def _upper_integer(s: int, x: float) -> SignedLog:
    # Gamma(s, x) = (s-1)! e^{-x} sum_{k<s} x^k / k!   (all terms positive)
    if x == 0.0:
        return gamma_whole(s)
    lx = math.log(x)
    logs = np.array([k * lx - math.lgamma(k + 1) for k in range(s)])
    body = signed_logsumexp(np.ones(s), logs)
    return SignedLog.from_log(math.lgamma(s) - x + body.logmag)


def _upper_half_integer(s: float, x: float) -> SignedLog:
    # seed Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)), scaled form avoids underflow,
    # then climb with Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}
    if x == 0.0:
        return gamma_whole(s)
    r = math.sqrt(x)
    val = SignedLog.from_log(0.5 * math.log(math.pi) - x + math.log(erfcx(r)))
    shape = 0.5
    while shape < s - 0.25:
        val = val.scaled(shape) + SignedLog.from_log(shape * math.log(x) - x)
        shape += 1.0
    return val


def _lower_series(s: float, x: float) -> SignedLog:
    # gamma(s, x) = x^s e^{-x} sum_{n>=0} x^n / (s (s+1) ... (s+n))
    if x == 0.0:
        return SignedLog.zero()
    term = 1.0 / s
    total = term
    ap = s
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return SignedLog.from_log(s * math.log(x) - x + math.log(total))
    raise ArithmeticError(f"lower incomplete gamma series stalled at s={s}, x={x}")


def _upper_cf(s: float, x: float) -> SignedLog:
    # modified Lentz continued fraction; valid and stable for x >= s + 1
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return SignedLog.from_log(s * math.log(x) - x + math.log(h))
    raise ArithmeticError(f"upper incomplete gamma fraction stalled at s={s}, x={x}")


def upper_incomplete_gamma(s: float, x: float) -> SignedLog:
    """Upper incomplete gamma integral of ``t^(s-1) e^(-t)`` over ``(x, inf)``."""
    _check_gamma_args(s, x)
    if x == 0.0:
        return gamma_whole(s)
    if _is_int(s):
        return _upper_integer(int(s), x)
    if _is_int(2 * s):
        return _upper_half_integer(s, x)
    if x < s + 1.0:
        return gamma_whole(s) - _lower_series(s, x)
    return _upper_cf(s, x)


def lower_incomplete_gamma(s: float, x: float) -> SignedLog:
    """Lower incomplete gamma integral of ``t^(s-1) e^(-t)`` over ``(0, x)``."""
    _check_gamma_args(s, x)
    if x == 0.0:
        return SignedLog.zero()
    if x < s + 1.0:
        return _lower_series(s, x)
    return gamma_whole(s) - upper_incomplete_gamma(s, x)


def two_limit_gamma(s: float, x1: float, x2: float) -> SignedLog:
    """Integral of ``t^(s-1) e^(-t)`` over ``(x1, x2)``; negative when x2 < x1."""
    _check_gamma_args(s, x1)
    _check_gamma_args(s, x2)
    if x1 == x2:
        return SignedLog.zero()
    return upper_incomplete_gamma(s, x1) - upper_incomplete_gamma(s, x2)


def hyp0f1(b: float, z: float) -> SignedLog:
    """Limit hypergeometric series ``sum_k z^k / ((b)_k k!)``.

    Summed forward with running rescaling, so arguments well past the
    overflow point of a plain double accumulator stay finite.
    """
    if b <= 0:
        raise ValueError(f"series parameter must be positive, got {b}")
    if z < 0:
        raise ValueError(f"argument must be nonnegative, got {z}")
    if z == 0.0:
        return SignedLog.one()
    log_scale = 0.0
    term = 1.0
    total = 1.0
    for k in range(_MAX_ITER):
        term *= z / ((b + k) * (k + 1))
        total += term
        if term < total * 1e-16 and k > 0:
            return SignedLog.from_log(log_scale + math.log(total))
        if total > 1e300:
            shift = math.log(total)
            log_scale += shift
            scale = math.exp(-shift)
            total *= scale
            term *= scale
    raise ArithmeticError(f"0F1 series stalled at b={b}, z={z}")


def falling_factorial(a: float, n: int) -> SignedLog:
    """Product ``a (a-1) ... (a-n+1)``; the empty product is 1."""
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    out = SignedLog.one()
    for k in range(n):
        out = out.scaled(a - k)
        if out.is_zero:
            break
    return out
