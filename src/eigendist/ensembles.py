"""Random-matrix ensemble models and their ordered-eigenvalue kernels.

Each supported ensemble factors its ordered joint eigenvalue density as

    K * |Phi(x)| * |Psi(x)| * prod_i xi(x_i)

where Phi is m x m, Psi is n x n with n >= m (columns past m are constants),
and xi is a scalar weight.  The engine only ever needs three things from an
ensemble: point values of the weighted row products, their integrals over a
segment of the support, and the constant block.  All three are returned in
signed-log form, and ``KernelForm.slice`` fills the n x n slice of entries
at one abscissa or over one segment.

The uncorrelated, spiked and correlated Wishart kernels, and the polynomial
columns of the noncentral one, share one entry rule: each declares in
``_entry(i, j)`` a triple (sign, power, scale) for the weighted product
``sign * x^power * e^(-x/scale)``, and ``_GammaKernel`` turns it into point
values and incomplete-gamma segment integrals, one entry at a time
(``point``, ``tilted_segment``) or a whole slice at once (``slice``).  A
segment slice is gathered from one ``incomplete_gamma_table`` array per
distinct scale and endpoint.  GUE (Gaussian weight) keeps its own rule but
fills its slices from the same tables; the noncentral series columns carry
a confluent series factor, and their segment entries are positive series
over the same tables, without quadrature.  Beta (binomial sums) and
callable tilts fill slices entry by entry.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import ConditioningWarning, InvalidModelError
from .pseudodet import _det_from_arrays, det_signed_log
from .signedlog import SignedLog
from .specfun import (
    falling_factorial,
    hyp0f1,
    incomplete_gamma_table,
    log_factorial,
    two_limit_gamma,
    upper_incomplete_gamma,
)

__all__ = [
    "UncorrelatedWishart",
    "CorrelatedWishart",
    "SpikedWishart",
    "NoncentralWishart",
    "GUE",
    "Beta",
    "EnsembleModel",
    "Tilt",
    "KernelForm",
    "kernel_form",
    "normalization_check",
    "parse_spec",
    "spec_string",
    "mean_eigenvalue_sum",
]

_INF = math.inf


# ---------------------------------------------------------------------------
# ensemble models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncorrelatedWishart:
    """Spectrum of X X^H for an iid complex Gaussian dim x n matrix, n >= dim."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidModelError(f"dim must be >= 1, got {self.dim}")
        if self.n < self.dim:
            raise InvalidModelError(f"n >= dim required, got n={self.n} < dim={self.dim}")


@dataclass(frozen=True)
class CorrelatedWishart:
    """Nonzero spectrum of X Sigma X^H; phi holds the distinct eigenvalues of
    Sigma^(-1) in decreasing order with multiplicities mult summing to n.

    The rank-deficient case p > n is accepted; the number of random
    eigenvalues is always min(p, n).
    """

    p: int
    n: int
    phi: tuple
    mult: tuple

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        if any(not float(v).is_integer() for v in self.mult):
            raise InvalidModelError(f"multiplicities must be integers: {self.mult}")
        object.__setattr__(self, "mult", tuple(int(v) for v in self.mult))
        if self.p < 1 or self.n < 1:
            raise InvalidModelError(f"p and n must be >= 1, got p={self.p}, n={self.n}")
        if len(self.phi) != len(self.mult) or not self.phi:
            raise InvalidModelError("phi and mult must be nonempty lists of equal length")
        if any(v <= 0 for v in self.phi):
            raise InvalidModelError(f"inverse-covariance eigenvalues must be positive: {self.phi}")
        if any(a <= b for a, b in zip(self.phi, self.phi[1:])):
            raise InvalidModelError(f"phi must be strictly decreasing: {self.phi}")
        if any(m < 1 for m in self.mult):
            raise InvalidModelError(f"multiplicities must be positive: {self.mult}")
        if sum(self.mult) != self.n:
            raise InvalidModelError(
                f"multiplicities sum {sum(self.mult)} != n={self.n}"
            )

    @property
    def dim(self) -> int:
        return min(self.p, self.n)


@dataclass(frozen=True)
class SpikedWishart:
    """Wishart spectrum under a spiked covariance: one eigenvalue sigma1, the
    remaining dim-1 equal to sigma2 < sigma1."""

    dim: int
    n: int
    sigma1: float
    sigma2: float

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidModelError(f"dim must be >= 1, got {self.dim}")
        if self.n < self.dim:
            raise InvalidModelError(f"n >= dim required, got n={self.n} < dim={self.dim}")
        if not (self.sigma1 > self.sigma2 > 0):
            raise InvalidModelError(
                f"sigma1 > sigma2 > 0 required, got sigma1={self.sigma1}, sigma2={self.sigma2}"
            )
        if self.dim > 1 and (self.sigma1 - self.sigma2) / self.sigma2 < 1e-6:
            warnings.warn(
                f"spiked gap (sigma1-sigma2)/sigma2 = "
                f"{(self.sigma1 - self.sigma2) / self.sigma2:.3g} is below 1e-6; "
                "the kernel is numerically ill-conditioned",
                ConditioningWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class NoncentralWishart:
    """Spectrum of X X^H with nonzero mean; mu holds the positive eigenvalues
    of the mean's Gram matrix in decreasing order."""

    dim: int
    n: int
    mu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        if self.dim < 1:
            raise InvalidModelError(f"dim must be >= 1, got {self.dim}")
        if self.n < self.dim:
            raise InvalidModelError(f"n >= dim required, got n={self.n} < dim={self.dim}")
        if not self.mu or len(self.mu) > self.dim:
            raise InvalidModelError(
                f"need 1..dim noncentrality eigenvalues, got {len(self.mu)}"
            )
        if any(v <= 0 for v in self.mu):
            raise InvalidModelError(f"noncentrality eigenvalues must be positive: {self.mu}")
        # ties make two kernel columns identical, which degenerates the density
        if any(a <= b for a, b in zip(self.mu, self.mu[1:])):
            raise InvalidModelError(f"mu must be strictly decreasing: {self.mu}")

    @property
    def rank(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class GUE:
    """Gaussian unitary ensemble of Hermitian dim x dim matrices."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidModelError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class Beta:
    """Multivariate beta (double Wishart) spectrum on (0, 1) with integer
    weight exponents m and n."""

    dim: int
    m: int
    n: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidModelError(f"dim must be >= 1, got {self.dim}")
        if self.m < 0 or self.n < 0:
            raise InvalidModelError(
                f"weight exponents must be nonnegative integers, got m={self.m}, n={self.n}"
            )


EnsembleModel = Union[
    UncorrelatedWishart, CorrelatedWishart, SpikedWishart, NoncentralWishart, GUE, Beta
]


# ---------------------------------------------------------------------------
# tilts: extra factors multiplying the weight inside a segment integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tilt:
    """Factor ``x^power * exp(rate*x) * fn(x)`` applied under the integral.

    Monomial and pure exponential tilts keep the closed forms; a callable
    forces the quadrature path.
    """

    power: int = 0
    rate: float = 0.0
    fn: Optional[Callable[[float], float]] = None

    def __call__(self, x: float) -> float:
        out = x**self.power * math.exp(self.rate * x)
        if self.fn is not None:
            out *= self.fn(x)
        return out

    @property
    def is_identity(self) -> bool:
        return self.power == 0 and self.rate == 0.0 and self.fn is None


IDENTITY_TILT = Tilt()


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def _log_pow(x: float, p: float) -> float:
    if p == 0:
        return 0.0
    if x == 0.0:
        return -_INF
    return p * math.log(x)


def _monomial(x: float, p: int) -> SignedLog:
    """Signed-log ``x^p`` valid on the whole real axis."""
    if p == 0:
        return SignedLog.one()
    if x == 0.0:
        return SignedLog.zero()
    sign = -1 if (x < 0 and p % 2) else 1
    return SignedLog.from_log(p * math.log(abs(x)), sign)


def _gamma_rate_segment(q: float, rate: float, a: float, b: float) -> SignedLog:
    """Integral of ``x^q e^(-rate x)`` over (a, b) with 0 <= a < b <= inf."""
    s = q + 1.0
    if b == _INF:
        core = upper_incomplete_gamma(s, a * rate)
    else:
        core = two_limit_gamma(s, a * rate, b * rate)
    return core * SignedLog.from_log(-s * math.log(rate))


def _gauss_pos_segment(q: int, a: float, b: float) -> SignedLog:
    # u = x^2 turns the Gaussian weight into a gamma weight of shape (q+1)/2
    s = (q + 1) / 2.0
    if b == _INF:
        core = upper_incomplete_gamma(s, a * a)
    else:
        core = two_limit_gamma(s, a * a, b * b)
    return core.scaled(0.5)


def _gauss_family(s0: float, idx: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of the integrals of ``x^q e^(-x^2)`` over (a, b) for the
    powers ``q = 2 (s0 + idx) - 1``: even powers for s0 = 1/2, and for s0 = 1
    odd ones, which flip sign on the negative half-axis."""
    odd = s0 == 1.0
    if a >= 0.0:
        signs, logs = _gamma_segments(s0, idx, a * a, b * b)
    elif b <= 0.0:
        signs, logs = _gamma_segments(s0, idx, b * b, a * a)
        if odd:
            signs = -signs
    else:
        right = _gamma_table(s0, idx, b * b)[1]
        left = _gamma_table(s0, idx, a * a)[1]
        if odd:
            signs, logs = _log_diff(right, left)
        else:
            signs, logs = np.ones(idx.shape), np.logaddexp(right, left)
    return signs, logs + math.log(0.5)


def _gauss_segment(q: int, a: float, b: float) -> SignedLog:
    """Integral of ``x^q e^(-x^2)`` over (a, b); odd powers flip sign on the
    negative half-axis."""
    if a >= 0.0:
        return _gauss_pos_segment(q, a, b)
    if b <= 0.0:
        flip = -1 if q % 2 else 1
        val = _gauss_pos_segment(q, -b, -a)
        return -val if flip < 0 else val
    left = _gauss_segment(q, a, 0.0)
    right = _gauss_pos_segment(q, 0.0, b)
    return left + right


def _beta_power_segment(p: int, q: int, a: float, b: float) -> SignedLog:
    """Integral of ``x^p (1-x)^q`` over (a, b) within [0, 1] by binomial sums,
    expanded around whichever endpoint keeps the alternating terms small."""
    a = min(max(a, 0.0), 1.0)
    b = min(max(b, 0.0), 1.0)
    if b <= a:
        return SignedLog.zero()
    if b <= 0.5:
        terms = [
            math.comb(q, t) * (-1) ** t * (b ** (p + t + 1) - a ** (p + t + 1)) / (p + t + 1)
            for t in range(q + 1)
        ]
        return SignedLog.of(math.fsum(terms))
    if a >= 0.5:
        u_lo, u_hi = 1.0 - b, 1.0 - a
        terms = [
            math.comb(p, t)
            * (-1) ** t
            * (u_hi ** (q + t + 1) - u_lo ** (q + t + 1))
            / (q + t + 1)
            for t in range(p + 1)
        ]
        return SignedLog.of(math.fsum(terms))
    return _beta_power_segment(p, q, a, 0.5) + _beta_power_segment(p, q, 0.5, b)


def _quad_plain(f: Callable[[float], float], a: float, b: float) -> SignedLog:
    val, _ = quad(f, a, b, epsabs=1e-12, epsrel=1e-10, limit=200)
    return SignedLog.of(val)


# ---------------------------------------------------------------------------
# array helpers: whole slices in signed-log form
# ---------------------------------------------------------------------------


def _signed(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slice arrays with the signed-log convention: sign 0 exactly at -inf."""
    return np.where(logs == -_INF, 0.0, signs), logs


def _log_diff(l1: np.ndarray, l2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of ``e^l1 - e^l2``, elementwise."""
    hi = np.maximum(l1, l2)
    # equal logs give log(0) = -inf; both -inf gives NaN, replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = hi + np.log(-np.expm1(np.minimum(l1, l2) - hi))
    logs = np.where(hi == -_INF, -_INF, logs)
    return _signed(np.where(l1 > l2, 1.0, -1.0), logs)


def _gamma_table(s0: float, idx: np.ndarray, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Logs of ``Gamma(s, y)`` and ``gamma(s, y)`` at the shapes ``s = s0 + idx``
    of an integer index array, from one table of the family."""
    if idx.min() < 0:
        raise ValueError(f"gamma shape must be positive, got {s0 + idx.min()}")
    upper, lower = incomplete_gamma_table(s0, int(idx.max()) + 1, y)
    return upper[idx], lower[idx]


def _gamma_segments(
    s0: float, idx: np.ndarray, ya: float, yb: float
) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of the integrals of ``t^(s-1) e^(-t)`` over (ya, yb) at
    the shapes ``s = s0 + idx``: the lower functions' difference where
    ``yb < s``, the upper functions' difference elsewhere, so that two
    nearly equal values are never subtracted."""
    upper_a, lower_a = _gamma_table(s0, idx, ya)
    upper_b, lower_b = _gamma_table(s0, idx, yb)
    below = s0 + idx > yb
    return _log_diff(np.where(below, lower_b, upper_a), np.where(below, lower_a, upper_b))


# ---------------------------------------------------------------------------
# kernel forms
# ---------------------------------------------------------------------------


class KernelForm:
    """Kernel decomposition shared by all ensembles.

    Subclasses fill in the row functions and the segment rules.  ``m`` is the
    number of random eigenvalues, ``n >= m`` the kernel dimension; columns
    m+1..n of the second determinant are constants.  ``log_k`` is the
    normalizing constant.
    """

    model: EnsembleModel
    m: int
    n: int
    support: tuple
    log_k: SignedLog
    # fastest admissible exponential tilt rate; inf when the weight decays
    # faster than any exponential
    max_exp_rate: float = _INF

    # -- row functions ------------------------------------------------------

    def phi(self, i: int, x: float) -> SignedLog:
        raise NotImplementedError

    def psi(self, j: int, x: float) -> SignedLog:
        raise NotImplementedError

    def xi(self, x: float) -> SignedLog:
        raise NotImplementedError

    def const(self, j: int, k: int) -> SignedLog:
        raise ValueError(f"kernel has no constant columns (n == m == {self.m})")

    @functools.cached_property
    def const_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Signs and logs of the (n-m) x n constant block: row k-m-1 holds
        ``const(j, k)`` for j = 1..n, for k = m+1..n."""
        signs = np.zeros((self.n - self.m, self.n))
        logs = np.full((self.n - self.m, self.n), -_INF)
        for k in range(self.m + 1, self.n + 1):
            for j in range(1, self.n + 1):
                v = self.const(j, k)
                signs[k - self.m - 1, j - 1] = v.sign
                logs[k - self.m - 1, j - 1] = v.logmag
        return signs, logs

    @functools.cached_property
    def memo(self) -> dict:
        """Values derived from this kernel by the statistics layer (grouping
        plans, marginal quadrature cuts, the densities at quadrature nodes);
        they are dropped with the kernel, so ``kernel_form.cache_clear()``
        clears them too."""
        return {}

    # -- table rules: closed forms of the weighted row products ----------------

    def point(self, i: int, j: int, x: float) -> SignedLog:
        """Entry (i, j) at x: phi_i * xi * psi_j, or bare xi * psi_j for i > m."""
        raise NotImplementedError

    def segment(self, i: int, j: int, a: float, b: float) -> SignedLog:
        return self.tilted_segment(i, j, a, b, IDENTITY_TILT)

    def tilted_segment(self, i: int, j: int, a: float, b: float, tilt: Tilt) -> SignedLog:
        raise NotImplementedError

    def _check_rate(self, tilt: Tilt) -> None:
        if tilt.rate >= self.max_exp_rate:
            raise ValueError(
                f"divergent integral: exponential tilt rate {tilt.rate} >= "
                f"weight decay rate {self.max_exp_rate}"
            )

    def _quad_tilted(self, i: int, j: int, a: float, b: float, tilt: Tilt) -> SignedLog:
        self._check_rate(tilt)

        def f(x: float) -> float:
            # compose in log scale; only the final conversion can saturate
            v = self.point(i, j, x)
            if tilt.power:
                v = v * SignedLog.of(x) ** tilt.power
            if tilt.rate:
                v = v * SignedLog.from_log(tilt.rate * x)
            out = v.to_float()
            if tilt.fn is not None:
                out *= tilt.fn(x)
            return out

        lo = max(a, self.support[0])
        hi = min(b, self.support[1])
        if hi <= lo:
            return SignedLog.zero()
        return _quad_plain(f, lo, hi)

    def slice(self, key) -> tuple[np.ndarray, np.ndarray]:
        """Signs and logs of the n x n slice named by a point abscissa or a
        segment key ``(a, b, tilt)``.

        This fills the slice entry by entry from ``point`` and
        ``tilted_segment``; kernels with closed-form tables override it with
        array rules and fall back here for callable tilts.
        """
        if isinstance(key, tuple):
            a, b, tilt = key
            entry = lambda i, j: self.tilted_segment(i, j, a, b, tilt)
        else:
            entry = lambda i, j: self.point(i, j, key)
        signs = np.zeros((self.n, self.n))
        logs = np.full((self.n, self.n), -_INF)
        for i in range(self.n):
            for j in range(self.n):
                v = entry(i + 1, j + 1)
                signs[i, j] = v.sign
                logs[i, j] = v.logmag
        return signs, logs

    # -- direct density -------------------------------------------------------

    def ordered_density(self, xs) -> float:
        """Direct kernel evaluation of the full ordered joint density."""
        xs = [float(v) for v in xs]
        if len(xs) != self.m:
            raise ValueError(f"expected {self.m} eigenvalues, got {len(xs)}")
        big_phi = [[self.phi(i, xs[j - 1]) for j in range(1, self.m + 1)] for i in range(1, self.m + 1)]
        big_psi = [
            [
                self.psi(i, xs[j - 1]) if j <= self.m else self.const(i, j)
                for j in range(1, self.n + 1)
            ]
            for i in range(1, self.n + 1)
        ]
        out = self.log_k * det_signed_log(big_phi) * det_signed_log(big_psi)
        for x in xs:
            out = out * self.xi(x)
        return out.to_float()


class _MonomialSquareKernel(KernelForm):
    """Square kernels whose Phi and Psi rows are plain monomials x^(i-1)."""

    def phi(self, i: int, x: float) -> SignedLog:
        return _monomial(x, i - 1)

    psi = phi


class _GammaKernel(KernelForm):
    """Kernels whose weighted entry (i, j) is ``sign * x^power * e^(-x/scale)``
    on (0, inf); subclasses declare that triple in ``_entry``, and segments
    are incomplete gamma functions.

    ``point`` and ``tilted_segment`` evaluate one entry; ``slice`` evaluates
    the same rules on the cached arrays of triples.  A segment slice needs
    one incomplete-gamma table per distinct scale and endpoint, gathered by
    power (by i+j for a Hankel kernel).

    The decay is a scale, not a rate, so the spiked kernel divides by its
    sigmas exactly as given: its permutation sums cancel strongly enough to
    turn a one-ulp change in ``x/sigma`` into 9e-9 relative in a density.
    """

    def _entry(self, i: int, j: int) -> tuple:
        raise NotImplementedError

    @functools.cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sign, power and scale arrays of ``_entry`` over the n x n slice."""
        rng = range(1, self.n + 1)
        table = np.array([[self._entry(i, j) for j in rng] for i in rng], dtype=float)
        return table[..., 0], table[..., 1].astype(int), table[..., 2]

    def point(self, i: int, j: int, x: float) -> SignedLog:
        sign, power, scale = self._entry(i, j)
        return SignedLog.from_log(_log_pow(x, power) - x / scale, sign)

    def tilted_segment(self, i, j, a, b, tilt: Tilt) -> SignedLog:
        if tilt.fn is not None:
            return self._quad_tilted(i, j, a, b, tilt)
        self._check_rate(tilt)
        sign, power, scale = self._entry(i, j)
        val = _gamma_rate_segment(power + tilt.power, 1.0 / scale - tilt.rate, max(a, 0.0), b)
        return val if sign > 0 else -val

    def slice(self, key) -> tuple[np.ndarray, np.ndarray]:
        sign, power, scale = self._entries
        if not isinstance(key, tuple):
            x = key
            # _log_pow's rule at the origin: 0^0 = 1
            lp = np.where(power == 0, 0.0, -_INF) if x == 0.0 else power * math.log(x)
            return _signed(sign, lp - x / scale)
        a, b, tilt = key
        if tilt.fn is not None:
            return super().slice(key)
        self._check_rate(tilt)
        a = max(a, 0.0)
        signs = np.zeros((self.n, self.n))
        logs = np.full((self.n, self.n), -_INF)
        for sc in np.unique(scale):
            cols = scale == sc
            rate = 1.0 / sc - tilt.rate
            q = power[cols] + tilt.power
            ss, sl = _gamma_segments(1.0, q, a * rate, b * rate)
            signs[cols] = sign[cols] * ss
            logs[cols] = sl - (q + 1.0) * math.log(rate)
        return _signed(signs, logs)


class _UncorrelatedKernel(_MonomialSquareKernel, _GammaKernel):
    def __init__(self, model: UncorrelatedWishart):
        self.model = model
        self.m = self.n = model.dim
        self.support = (0.0, _INF)
        self.max_exp_rate = 1.0
        log_inv_k = sum(
            log_factorial(model.n - i) + log_factorial(model.dim - i)
            for i in range(1, model.dim + 1)
        )
        self.log_k = SignedLog.from_log(-log_inv_k)

    def xi(self, x: float) -> SignedLog:
        power = self.model.n - self.model.dim
        return SignedLog.from_log(_log_pow(x, power) - x)

    def _entry(self, i: int, j: int) -> tuple:
        return 1, i + j + self.model.n - self.model.dim - 2, 1.0


class _GUEKernel(_MonomialSquareKernel):
    def __init__(self, model: GUE):
        self.model = model
        self.m = self.n = model.dim
        self.support = (-_INF, _INF)
        d = model.dim
        log_k = (
            d * (d - 1) / 2.0 * math.log(2.0)
            - d / 2.0 * math.log(math.pi)
            - sum(log_factorial(i - 1) for i in range(1, d + 1))
        )
        self.log_k = SignedLog.from_log(log_k)

    def xi(self, x: float) -> SignedLog:
        return SignedLog.from_log(-x * x)

    def point(self, i: int, j: int, x: float) -> SignedLog:
        q = i + j - 2
        sign = -1 if (x < 0 and q % 2) else 1
        return SignedLog.from_log(_log_pow(abs(x), q) - x * x, sign)

    def tilted_segment(self, i, j, a, b, tilt: Tilt) -> SignedLog:
        if tilt.fn is not None or tilt.rate != 0.0:
            return self._quad_tilted(i, j, a, b, tilt)
        return _gauss_segment(i + j - 2 + tilt.power, a, b)

    def slice(self, key) -> tuple[np.ndarray, np.ndarray]:
        q = np.add.outer(np.arange(self.n), np.arange(self.n))
        if not isinstance(key, tuple):
            x = key
            lp = np.where(q == 0, 0.0, -_INF) if x == 0.0 else q * math.log(abs(x))
            return _signed(np.where((x < 0) & (q % 2 == 1), -1.0, 1.0), lp - x * x)
        a, b, tilt = key
        if tilt.fn is not None or tilt.rate != 0.0:
            return super().slice(key)
        q = q + tilt.power
        # u = x^2 maps x^q e^(-x^2) to a gamma weight of shape (q+1)/2: the even
        # powers form the half-integer family, the odd ones the integer family,
        # and either way the shape's index in its family is q // 2
        even = _gauss_family(0.5, q // 2, a, b)
        odd = _gauss_family(1.0, q // 2, a, b)
        odd_q = q % 2 == 1
        return np.where(odd_q, odd[0], even[0]), np.where(odd_q, odd[1], even[1])


class _BetaKernel(_MonomialSquareKernel):
    def __init__(self, model: Beta):
        self.model = model
        self.m = self.n = model.dim
        self.support = (0.0, 1.0)
        # 1/K is the hypercube power integral over M! (a product of beta
        # moments of the squared Vandermonde)
        log_s = sum(
            log_factorial(model.m + j)
            + log_factorial(model.n + j)
            + log_factorial(j + 1)
            - log_factorial(model.m + model.n + model.dim + j)
            for j in range(model.dim)
        )
        self.log_k = SignedLog.from_log(log_factorial(model.dim) - log_s)

    def xi(self, x: float) -> SignedLog:
        return SignedLog.from_log(_log_pow(x, self.model.m) + _log_pow(1.0 - x, self.model.n))

    def point(self, i: int, j: int, x: float) -> SignedLog:
        q = i + j - 2 + self.model.m
        return SignedLog.from_log(_log_pow(x, q) + _log_pow(1.0 - x, self.model.n))

    def tilted_segment(self, i, j, a, b, tilt: Tilt) -> SignedLog:
        if tilt.fn is not None or tilt.rate != 0.0:
            return self._quad_tilted(i, j, max(a, 0.0), min(b, 1.0), tilt)
        return _beta_power_segment(i + j - 2 + self.model.m + tilt.power, self.model.n, a, b)


class _SpikedKernel(_GammaKernel):
    """Spiked-covariance Wishart kernel.

    The ordered-difference product is folded into alternating monomial rows
    (-x)^(i-1), so the plain sign conventions of the general machinery apply.
    """

    def __init__(self, model: SpikedWishart):
        self.model = model
        self.m = self.n = model.dim
        self.support = (0.0, _INF)
        self.max_exp_rate = 1.0 / model.sigma1
        m, n = model.dim, model.n
        s1, s2 = model.sigma1, model.sigma2
        log_inv_k = (
            (n - m + 1) * math.log(s1)
            + (n - 1) * (m - 1) * math.log(s2)
            + (m - 1) * math.log(s1 - s2)
            + sum(log_factorial(n - i) for i in range(1, m + 1))
            + sum(log_factorial(el) for el in range(2, m - 1))
        )
        self.log_k = SignedLog.from_log(-log_inv_k)

    def phi(self, i: int, x: float) -> SignedLog:
        sign = -1 if (i - 1) % 2 else 1
        return SignedLog.from_log(_log_pow(x, i - 1), sign)

    def psi(self, j: int, x: float) -> SignedLog:
        if j == 1:
            return SignedLog.from_log(-x / self.model.sigma1)
        return SignedLog.from_log(_log_pow(x, self.model.dim - j) - x / self.model.sigma2)

    def xi(self, x: float) -> SignedLog:
        return SignedLog.from_log(_log_pow(x, self.model.n - self.model.dim))

    def _entry(self, i: int, j: int) -> tuple:
        sign = -1 if (i - 1) % 2 else 1
        n = self.model.n
        if j == 1:
            return sign, n - self.model.dim + i - 1, self.model.sigma1
        return sign, n + i - j - 1, self.model.sigma2


class _CorrelatedKernel(_GammaKernel):
    """General-correlation quadratic-form kernel with constant tail columns."""

    def __init__(self, model: CorrelatedWishart):
        self.model = model
        self.m = model.dim
        self.n = model.n
        self.support = (0.0, _INF)
        self.max_exp_rate = model.phi[-1]
        # group index e(j) and descending offset d(j) per kernel row
        self._e = []
        self._d = []
        bounds = np.cumsum(model.mult)
        for j in range(1, model.n + 1):
            g = int(np.searchsorted(bounds, j))
            self._e.append(g)
            self._d.append(int(bounds[g]) - j)
        self.log_k = self._normalizer()

    def _normalizer(self) -> SignedLog:
        model = self.model
        p, m = model.p, model.dim
        sign = -1 if (p * (model.n - m)) % 2 else 1
        log_num = sum(mi * p * math.log(ph) for ph, mi in zip(model.phi, model.mult))
        log_den = sum(log_factorial(p - i) for i in range(1, m + 1))
        for mi in model.mult:
            log_den += sum(log_factorial(mi - i) for i in range(1, mi + 1))
        for a in range(len(model.phi)):
            for b in range(a + 1, len(model.phi)):
                log_den += (
                    model.mult[a] * model.mult[b] * math.log(model.phi[a] - model.phi[b])
                )
        return SignedLog.from_log(log_num - log_den, sign)

    def phi(self, i: int, x: float) -> SignedLog:
        return SignedLog.from_log(_log_pow(x, i - 1))

    def psi(self, j: int, x: float) -> SignedLog:
        d = self._d[j - 1]
        rate = self.model.phi[self._e[j - 1]]
        sign = -1 if d % 2 else 1
        return SignedLog.from_log(_log_pow(x, d) - rate * x, sign)

    def xi(self, x: float) -> SignedLog:
        return SignedLog.from_log(_log_pow(x, self.model.p - self.m))

    def const(self, j: int, k: int) -> SignedLog:
        if not (self.m < k <= self.n):
            raise ValueError(f"constant column index {k} outside {self.m + 1}..{self.n}")
        d = self._d[j - 1]
        rate = self.model.phi[self._e[j - 1]]
        return falling_factorial(float(self.n - k), d) * SignedLog.from_log(
            (self.n - k - d) * math.log(rate)
        )

    def _entry(self, i: int, j: int) -> tuple:
        # phi_i = x^(i-1) on the random rows, bare xi on the rows past m
        d = self._d[j - 1]
        zeta = i - 1 if i <= self.m else 0
        sign = -1 if d % 2 else 1
        return sign, self.model.p - self.m + zeta + d, 1.0 / self.model.phi[self._e[j - 1]]


class _NoncentralKernel(_GammaKernel):
    """Noncentral uncorrelated kernel; the first rank columns carry the
    confluent series, the other columns follow the gamma rule.

    Over a segment, a series column's entry is the positive series
    ``sum_k mu^k / ((b0)_k k!) * I(q+k) / (n-m)!``, where ``I(p)`` is the
    segment integral of ``x^p e^(-rate x)``, read from one incomplete-gamma
    table; the series is summed until its terms fall below 4e-18 of the sum.
    """

    def __init__(self, model: NoncentralWishart):
        self.model = model
        self.m = self.n = model.dim
        self.support = (0.0, _INF)
        self.max_exp_rate = 1.0
        self._b0 = model.n - model.dim + 1.0
        self._log_norm = log_factorial(model.n - model.dim)
        # the normalizer is not available in closed form; fix it so the
        # full-support hypercube mass is exactly one
        self.log_k = SignedLog.one() / _det_from_arrays(*self.slice((0.0, _INF, IDENTITY_TILT)))

    def phi(self, i: int, x: float) -> SignedLog:
        return SignedLog.from_log(_log_pow(x, self.model.dim - i))

    def psi(self, j: int, x: float) -> SignedLog:
        if j <= self.model.rank:
            series = hyp0f1(self._b0, self.model.mu[j - 1] * x)
            return SignedLog.from_log(series.logmag - self._log_norm)
        return SignedLog.from_log(_log_pow(x, self.model.dim - j))

    def xi(self, x: float) -> SignedLog:
        return SignedLog.from_log(_log_pow(x, self.model.n - self.model.dim) - x)

    def _entry(self, i: int, j: int) -> tuple:
        return 1, self.model.n + self.model.dim - i - j, 1.0

    def point(self, i: int, j: int, x: float) -> SignedLog:
        if j > self.model.rank:
            return super().point(i, j, x)
        series = hyp0f1(self._b0, self.model.mu[j - 1] * x)
        return SignedLog.from_log(
            _log_pow(x, self.model.n - i) - x + series.logmag - self._log_norm
        )

    def tilted_segment(self, i, j, a, b, tilt: Tilt) -> SignedLog:
        if j > self.model.rank or tilt.fn is not None:
            return super().tilted_segment(i, j, a, b, tilt)
        self._check_rate(tilt)
        return SignedLog.from_log(self._series_segment(a, b, tilt)[i - 1, j - 1])

    def slice(self, key) -> tuple[np.ndarray, np.ndarray]:
        signs, logs = super().slice(key)
        if isinstance(key, tuple) and key[2].fn is not None:
            return signs, logs
        r = self.model.rank
        series = self._series_segment(*key) if isinstance(key, tuple) else self._series_point(key)
        signs[:, :r], logs[:, :r] = _signed(1.0, series)
        return signs, logs

    def _series_point(self, x: float) -> np.ndarray:
        powers = self.model.n - np.arange(1, self.n + 1)
        lp = np.where(powers == 0, 0.0, -_INF) if x == 0.0 else powers * math.log(x)
        series = np.array([hyp0f1(self._b0, mu * x).logmag for mu in self.model.mu])
        return lp[:, None] - x + series[None, :] - self._log_norm

    def _series_segment(self, a: float, b: float, tilt: Tilt) -> np.ndarray:
        rate = 1.0 - tilt.rate
        q = self.model.n - np.arange(1, self.n + 1) + tilt.power
        log_mu = np.log(self.model.mu)[:, None, None]
        terms = 32
        while terms <= 4096:
            k = np.arange(terms)
            log_coef = k * log_mu - (gammaln(self._b0 + k) - gammaln(self._b0)) - gammaln(k + 1.0)
            p = q[:, None] + k
            _, log_int = _gamma_segments(1.0, p, max(a, 0.0) * rate, b * rate)
            t = log_coef + (log_int - (p + 1.0) * math.log(rate))
            total = np.logaddexp.reduce(t, axis=-1)
            if np.all((t[..., -1] <= total - 40.0) & (t[..., -1] <= t[..., -2])):
                return (total - self._log_norm).T
            terms *= 2
        raise ArithmeticError(f"noncentral series stalled on ({a}, {b}) with {tilt}")


_KERNELS = {
    UncorrelatedWishart: _UncorrelatedKernel,
    CorrelatedWishart: _CorrelatedKernel,
    SpikedWishart: _SpikedKernel,
    NoncentralWishart: _NoncentralKernel,
    GUE: _GUEKernel,
    Beta: _BetaKernel,
}


@functools.lru_cache(maxsize=128)
def kernel_form(model: EnsembleModel) -> KernelForm:
    """Kernel decomposition of the ordered joint eigenvalue density."""
    try:
        cls = _KERNELS[type(model)]
    except KeyError:
        raise InvalidModelError(f"unsupported ensemble {type(model).__name__}") from None
    return cls(model)


def normalization_check(model: EnsembleModel) -> float:
    """Total mass of the density via the full-support hypercube identity."""
    from .distributions import prob_all_in

    kf = kernel_form(model)
    return prob_all_in(model, kf.support[0], kf.support[1], method="tensor")


def mean_eigenvalue_sum(model: EnsembleModel) -> Optional[float]:
    """Expected eigenvalue sum where a simple trace identity gives it."""
    if isinstance(model, UncorrelatedWishart):
        return float(model.dim * model.n)
    if isinstance(model, CorrelatedWishart):
        return model.p * sum(mi / ph for ph, mi in zip(model.phi, model.mult))
    if isinstance(model, SpikedWishart):
        return model.n * (model.sigma1 + (model.dim - 1) * model.sigma2)
    if isinstance(model, NoncentralWishart):
        return float(model.dim * model.n + sum(model.mu))
    if isinstance(model, GUE):
        return 0.0
    return None


# ---------------------------------------------------------------------------
# flat key-value ensemble specs
# ---------------------------------------------------------------------------

_SPEC_NAMES = {
    "uncorrelated-wishart",
    "correlated-wishart",
    "spiked-wishart",
    "noncentral-wishart",
    "gue",
    "beta",
}


def _num_list(raw: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated number list, got {raw!r}") from None


def _int_value(kv: dict, key: str) -> int:
    if key not in kv:
        raise ValueError(f"missing required key {key!r}")
    raw = kv.pop(key)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"key {key!r} must be an integer, got {raw!r}") from None


def _float_value(kv: dict, key: str) -> float:
    if key not in kv:
        raise ValueError(f"missing required key {key!r}")
    raw = kv.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"key {key!r} must be a number, got {raw!r}") from None


def parse_spec(text: str) -> EnsembleModel:
    """Parse a flat ensemble spec like
    ``correlated-wishart p=4 n=6 phi=2.0,1.0 mult=2,4``.

    The ensemble name may appear bare as the first token or as
    ``ensemble=<name>``.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty ensemble spec")
    kv = {}
    name = None
    for tok in tokens:
        if "=" in tok:
            key, _, value = tok.partition("=")
            if key == "ensemble":
                name = value
            else:
                kv[key] = value
        elif name is None:
            name = tok
        else:
            raise ValueError(f"unexpected token {tok!r} in ensemble spec")
    if name is None:
        raise ValueError("ensemble spec does not name an ensemble")
    name = name.lower()
    if name not in _SPEC_NAMES:
        raise ValueError(
            f"unknown ensemble {name!r}; expected one of {sorted(_SPEC_NAMES)}"
        )

    if name == "uncorrelated-wishart":
        model = UncorrelatedWishart(dim=_int_value(kv, "M"), n=_int_value(kv, "n"))
    elif name == "correlated-wishart":
        p = _int_value(kv, "p")
        n = _int_value(kv, "n")
        if "phi" not in kv:
            raise ValueError("missing required key 'phi'")
        phi = _num_list(kv.pop("phi"))
        if "mult" not in kv:
            raise ValueError("missing required key 'mult'")
        mult = _num_list(kv.pop("mult"))
        model = CorrelatedWishart(p=p, n=n, phi=phi, mult=mult)
    elif name == "spiked-wishart":
        model = SpikedWishart(
            dim=_int_value(kv, "M"),
            n=_int_value(kv, "n"),
            sigma1=_float_value(kv, "sigma1"),
            sigma2=_float_value(kv, "sigma2"),
        )
    elif name == "noncentral-wishart":
        if "mu" not in kv:
            raise ValueError("missing required key 'mu'")
        mu = _num_list(kv.pop("mu"))
        model = NoncentralWishart(dim=_int_value(kv, "M"), n=_int_value(kv, "n"), mu=mu)
    elif name == "gue":
        model = GUE(dim=_int_value(kv, "M"))
    else:
        model = Beta(dim=_int_value(kv, "M"), m=_int_value(kv, "m"), n=_int_value(kv, "n"))

    if kv:
        raise ValueError(f"unknown keys in ensemble spec: {sorted(kv)}")
    return model


def _fmt(v: float) -> str:
    # shortest digits that parse back to the same float; whole numbers bare
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") else text


def spec_string(model: EnsembleModel) -> str:
    """Flat key-value form accepted back by :func:`parse_spec`."""
    if isinstance(model, UncorrelatedWishart):
        return f"uncorrelated-wishart M={model.dim} n={model.n}"
    if isinstance(model, CorrelatedWishart):
        phi = ",".join(_fmt(v) for v in model.phi)
        mult = ",".join(str(v) for v in model.mult)
        return f"correlated-wishart p={model.p} n={model.n} phi={phi} mult={mult}"
    if isinstance(model, SpikedWishart):
        return (
            f"spiked-wishart M={model.dim} n={model.n} "
            f"sigma1={_fmt(model.sigma1)} sigma2={_fmt(model.sigma2)}"
        )
    if isinstance(model, NoncentralWishart):
        mu = ",".join(_fmt(v) for v in model.mu)
        return f"noncentral-wishart M={model.dim} n={model.n} mu={mu}"
    if isinstance(model, GUE):
        return f"gue M={model.dim}"
    if isinstance(model, Beta):
        return f"beta M={model.dim} m={model.m} n={model.n}"
    raise InvalidModelError(f"unsupported ensemble {type(model).__name__}")
