"""Sign-tracked log-scale scalars.

Every quantity flowing through the determinant engine is stored as a pair
(sign, log magnitude).  Constants built from products of factorials and
incomplete-gamma values overflow IEEE doubles long before the matrix sizes
become computationally infeasible, so all products and sums are carried out
in this representation.  The convention is strict: ``sign == 0`` if and only
if ``logmag == -inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SignedLog", "SignedLogSum", "signed_logsumexp"]

_NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class SignedLog:
    """A real number stored as ``sign * exp(logmag)``."""

    sign: int
    logmag: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if math.isnan(self.logmag):
            raise ValueError("log magnitude must not be NaN")
        if (self.sign == 0) != (self.logmag == _NEG_INF):
            raise ValueError("sign 0 must pair with logmag -inf and vice versa")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: float) -> "SignedLog":
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot represent NaN")
        if value == 0.0:
            return _ZERO
        return SignedLog(1 if value > 0 else -1, math.log(abs(value)))

    @staticmethod
    def from_log(logmag: float, sign: int = 1) -> "SignedLog":
        if logmag == _NEG_INF or sign == 0:
            return _ZERO
        return SignedLog(1 if sign > 0 else -1, float(logmag))

    @staticmethod
    def zero() -> "SignedLog":
        return _ZERO

    @staticmethod
    def one() -> "SignedLog":
        return _ONE

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.logmag)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        s = self.sign * other.sign
        if s == 0:
            return _ZERO
        return SignedLog(s, self.logmag + other.logmag)

    def __truediv__(self, other: "SignedLog") -> "SignedLog":
        if other.sign == 0:
            raise ZeroDivisionError("division by signed-log zero")
        if self.sign == 0:
            return _ZERO
        return SignedLog(self.sign * other.sign, self.logmag - other.logmag)

    def __neg__(self) -> "SignedLog":
        if self.sign == 0:
            return self
        return SignedLog(-self.sign, self.logmag)

    def __add__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.logmag >= other.logmag else (other, self)
        # r in (-2, 2]; |r| >= 0 with exact cancellation possible
        r = hi.sign + lo.sign * math.exp(lo.logmag - hi.logmag)
        if r == 0.0:
            return _ZERO
        return SignedLog(1 if r > 0 else -1, hi.logmag + math.log(abs(r)))

    def __sub__(self, other: "SignedLog") -> "SignedLog":
        return self + (-other)

    def __pow__(self, n: int) -> "SignedLog":
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        if self.sign == 0:
            if n < 0:
                raise ZeroDivisionError("zero to a negative power")
            return _ONE if n == 0 else _ZERO
        sign = 1 if (self.sign > 0 or n % 2 == 0) else -1
        return SignedLog(sign, n * self.logmag)

    def scaled(self, factor: float) -> "SignedLog":
        """Multiply by a plain float without an intermediate conversion."""
        return self * SignedLog.of(factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignedLog({self.sign:+d}, {self.logmag:.6g})"


_ZERO = SignedLog(0, _NEG_INF)
_ONE = SignedLog(1, 0.0)


class SignedLogSum:
    """Streaming compensated sum of signed-log terms, the accumulator of
    ``signed_logsumexp``.

    Terms are rescaled by the running maximum log magnitude and accumulated
    with Kahan compensation, so terms added in a fixed order give a
    bit-stable total.  The permutation sum does not use it: it sums each
    chunk of determinants exactly (``pseudodet._table_sum``).
    """

    __slots__ = ("_max", "_sum", "_comp")

    def __init__(self) -> None:
        self._max = _NEG_INF
        self._sum = 0.0
        self._comp = 0.0

    def add(self, term: SignedLog) -> None:
        if term.sign == 0:
            return
        self._ingest(term.sign, term.logmag)

    def add_terms(self, signs: np.ndarray, logs: np.ndarray) -> None:
        """Add a batch of terms given as parallel sign / log arrays."""
        finite = logs > _NEG_INF
        if not finite.any():
            return
        logs = logs[finite]
        signs = signs[finite]
        peak = float(logs.max())
        if peak > self._max:
            self._rescale(peak)
        # exact pairwise total of the rescaled chunk, then one Kahan step
        chunk = math.fsum((signs * np.exp(logs - self._max)).tolist())
        self._kahan(chunk)

    def total(self) -> SignedLog:
        if self._max == _NEG_INF:
            return _ZERO
        # running sum is high by the pending compensation
        s = self._sum - self._comp
        if s == 0.0:
            return _ZERO
        return SignedLog(1 if s > 0 else -1, self._max + math.log(abs(s)))

    def _ingest(self, sign: int, logmag: float) -> None:
        if logmag > self._max:
            self._rescale(logmag)
        self._kahan(sign * math.exp(logmag - self._max))

    def _rescale(self, new_max: float) -> None:
        if self._max > _NEG_INF:
            factor = math.exp(self._max - new_max)
            self._sum *= factor
            self._comp *= factor
        self._max = new_max

    def _kahan(self, value: float) -> None:
        y = value - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t


def signed_logsumexp(signs: np.ndarray, logs: np.ndarray) -> SignedLog:
    """Signed log-sum-exp of parallel sign / log-magnitude arrays."""
    acc = SignedLogSum()
    acc.add_terms(np.asarray(signs, dtype=float), np.asarray(logs, dtype=float))
    return acc.total()
