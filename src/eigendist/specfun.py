"""Special functions returned in signed-log form.

The kernel integrals reduce to upper/lower incomplete gamma functions with
integer or half-integer shape and the confluent limit series 0F1.  All of
it is pure.  The scalar functions split between series, finite recurrence,
and continued fraction at the usual cancellation-avoidance boundary
``x = s + 1``.  ``incomplete_gamma_table`` returns both
functions for every shape of one integer or half-integer family at once, as
numpy arrays, for one limit or a vector of them, which is what the kernel
slices are filled from.

The log gamma values on those two shape grids come from one kept table per
family, ``log_gamma_range``, filled on demand by Cephes ``lgam`` (Moshier,
*Methods and Programs for Mathematical Functions*, 1989), so they equal
``scipy.special.gammaln`` bit for bit.  Only the half-integer family's seed
``erfcx`` comes from ``scipy.special``, imported where it is used, so the
Wishart-type kernels run without loading it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .signedlog import SignedLog, signed_logsumexp

__all__ = [
    "log_gamma",
    "log_gamma_range",
    "gamma_whole",
    "upper_incomplete_gamma",
    "lower_incomplete_gamma",
    "incomplete_gamma_table",
    "hyp0f1",
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


# Cephes lgam: Stirling's series from 13 up (A), a rational function on
# [2, 3] below (B over C), and log sqrt(2 pi)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178


def _lgam(x: float) -> float:
    """``log Gamma(x)`` for ``x > 0`` by Cephes ``lgam``, operation for
    operation, so it rounds as ``scipy.special.gammaln`` does."""
    if x < 13.0:
        # shift into [2, 3), keeping the product of the steps in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        num, den = _LGAM_B[0], x + _LGAM_C[0]
        for b, c in zip(_LGAM_B[1:], _LGAM_C[1:]):
            num, den = num * x + b, den * x + c
        return math.log(z) + x * num / den
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    return q + series / x


# shape family s0 -> log Gamma(s0 + k) for k = 0, 1, ..., read-only; a
# table only ever grows by values that do not depend on the caller, so two
# callers growing it at once repeat work and lose nothing
_LOG_GAMMA = {0.5: np.empty(0), 1.0: np.empty(0)}


def log_gamma_range(s0: float, start: int, stop: int) -> np.ndarray:
    """``log Gamma(s0 + k)`` for ``k = start, ..., stop - 1``, where ``s0`` is
    1 (integer shapes) or 1/2 (half-integer), read from the family's kept
    table, which grows by doubling.  The values equal
    ``scipy.special.gammaln``'s bit for bit.  A range that starts at
    ``k >= 0`` is a read-only view of the table; the integer family reads
    +inf at its poles ``s0 + k <= 0``."""
    table = _LOG_GAMMA.get(s0)
    if table is None:
        raise ValueError(f"shape family must start at 1/2 or 1, got {s0}")
    if len(table) < stop:
        grown = np.concatenate((table, [_lgam(s0 + k) for k in range(len(table), max(stop, 2 * len(table), 64))]))
        grown.flags.writeable = False
        table = _LOG_GAMMA[s0] = grown
    if start >= 0:
        return table[start:stop]
    if s0 != 1.0:
        raise ValueError(f"log gamma of the half-integer family needs k >= 0, got {start}")
    return np.concatenate((np.full(min(stop, 0) - start, math.inf), table[: max(stop, 0)]))


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
    from scipy.special import erfcx

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
    raise NumericError(f"lower incomplete gamma series stalled at s={s}, x={x}")


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
    raise NumericError(f"upper incomplete gamma fraction stalled at s={s}, x={x}")


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


def incomplete_gamma_table(s0: float, count: int, y) -> tuple[np.ndarray, np.ndarray]:
    """Logs of ``Gamma(s, y)`` and ``gamma(s, y)`` for ``s = s0, s0+1, ...,
    s0+count-1``, where ``s0`` is 1 (integer shapes) or 1/2 (half-integer).
    ``y`` is one limit, giving two arrays of ``count`` values, or a vector of
    limits, giving one row per limit.

    Both come from the positive series terms ``y^(s0+k) e^(-y) / Gamma(s0+k+1)``,
    whose log gammas, like the complete ``Gamma(s)``, are slices of the
    family's kept table (``log_gamma_range``).
    The regularized upper function of shape ``s0+n`` is its seed ``Q(s0, y)``
    (``e^(-y)``, or ``erfc(sqrt(y))`` through ``erfcx``) plus the first n
    terms, a forward cumulative sum.  The regularized lower function is the
    tail of the terms from k = n, a backward cumulative sum, where ``y < s``;
    where ``y >= s``, ``Q`` is at most about one half and ``1 - Q`` loses
    nothing.

    The rows share one array pass: a row needs fewer tail terms than the
    largest limit, and its surplus terms are ``-inf``, which the backward
    sum passes through exactly, so every row equals its value computed
    alone.  Each distinct limit is tabled once, and a repeated one reads
    that row: a pass over the segments (a, x) and (x, b) meets every x
    twice.  Rows at the limits 0 and inf are set directly.
    """
    if s0 not in (0.5, 1.0):
        raise ValueError(f"shape family must start at 1/2 or 1, got {s0}")
    if count < 1:
        raise ValueError(f"need at least one shape, got {count}")
    ys = np.asarray(y, dtype=float)
    limits = ys.reshape(-1).tolist()
    if not all(v >= 0.0 for v in limits):
        raise ValueError(f"gamma limit must be nonnegative, got {y}")
    shapes = s0 + np.arange(count)
    whole = log_gamma_range(s0, 0, count)
    inner = list(dict.fromkeys(v for v in limits if 0.0 < v < math.inf))
    if inner:
        # past the largest shape the terms fall at least like exp(-j^2 / 2y)
        top = s0 + count - 1
        extra = [int(10.0 * math.sqrt(v)) + 40 if top > v else 0 for v in inner]
        width = count - 1 + max(extra)
        k = s0 + np.arange(width)
        y = np.array(inner)[:, None]
        terms = k * np.array([[math.log(v)] for v in inner]) - y - log_gamma_range(s0, 1, width + 1)
        if min(extra) != max(extra):
            terms[np.arange(width) >= count - 1 + np.array(extra)[:, None]] = -math.inf
        if s0 == 1.0:
            seed = -y
        else:
            from scipy.special import erfcx

            seed = np.array([[math.log(erfcx(math.sqrt(v))) - v] for v in inner])
        log_q = np.logaddexp.accumulate(np.concatenate((seed, terms[:, : count - 1]), axis=1), axis=1)
        below = shapes > y
        log_p = np.log(-np.expm1(np.where(below, -1.0, log_q)))
        if max(extra):
            tails = np.logaddexp.accumulate(terms[:, ::-1], axis=1)[:, ::-1][:, :count]
            log_p = np.where(below, tails, log_p)
        upper, lower = whole + log_q, whole + log_p
    if len(inner) < len(limits):
        # the rows at the limits 0 and inf follow the others, and a repeated
        # limit reads its one row
        none = np.full(count, -math.inf)
        upper = np.concatenate((upper, (whole, none))) if inner else np.array((whole, none))
        lower = np.concatenate((lower, (none, whole))) if inner else np.array((none, whole))
        row = {v: r for r, v in enumerate(inner)}
        row[0.0], row[math.inf] = len(inner), len(inner) + 1
        at = [row[v] for v in limits]
        upper, lower = upper[at], lower[at]
    if ys.ndim == 0:
        return upper[0], lower[0]
    return upper, lower


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
    raise NumericError(f"0F1 series stalled at b={b}, z={z}")
