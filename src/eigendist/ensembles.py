"""Random-matrix ensemble models and their ordered-eigenvalue kernels.

Each supported ensemble factors its ordered joint eigenvalue density as

    K * |Phi(x)| * |Psi(x)| * prod_i xi(x_i)

where Phi is m x m, Psi is n x n with n >= m (columns past m are constants),
and xi is a scalar weight.  Every kernel is described by array rules, all
in signed-log form: ``KernelForm.rows`` gives Phi, Psi and xi at a vector
of abscissae, ``const_rows`` the constant block C, and the slice rules fill
the weighted row products.  ``ordered_density`` reads the rows directly as
``K * det Phi * det[Psi | C^T] * prod xi``.  The engine reads the slices and
the constant block: ``KernelForm.slice`` fills the n x n slice of entries
at one abscissa or over one segment, or the stack of slices at a vector of
abscissae or over a vector of segments, in one array pass.  The rows and
the slices do not call each other, so each checks the other.

The uncorrelated, spiked and correlated Wishart kernels, and the polynomial
columns of the noncentral one, share one entry rule: each declares in
``_entry(i, j)`` a triple (sign, power, scale) for the weighted product
``sign * x^power * e^(-x/scale)``, and ``_GammaKernel`` turns the arrays of
triples into point slices and incomplete-gamma segment slices.  The segment
slices of a stack are gathered from one ``incomplete_gamma_table`` array
per distinct scale, with one row per endpoint.  GUE (Gaussian weight) keeps
its own rule but fills its slices from the same tables; the noncentral
series columns carry a confluent series factor, and their segment entries
are positive series over the same tables, without quadrature.  Beta
segments are regularized incomplete beta functions.  Tilts with no closed
form (callable factors, and exponential tilts of the Gaussian and beta
weights) integrate the kernel's own point slices with the batched adaptive
Gauss-Kronrod rule of ``quadrature``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConditioningWarning, InvalidModelError, NumericError
from .pseudodet import _batch_det, _det_from_arrays
from .quadrature import integrate
from .signedlog import SignedLog
from .specfun import hyp0f1, incomplete_gamma_table, log_factorial, log_gamma_range

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
# tilted segments without a closed form: relative tolerance of the max norm
# over the entries, each scaled to its untilted half-segment integral, and
# the largest number of quadrature panels
_TILT_EPSREL = 1e-13
_TILT_PANELS = 2000


# ---------------------------------------------------------------------------
# ensemble models
# ---------------------------------------------------------------------------


# model field annotations -> (whether the field is a tuple, the type of its entries)
_KINDS = {"int": (False, int), "float": (False, float),
          "tuple[int, ...]": (True, int), "tuple[float, ...]": (True, float)}


def _kind(cls, field: str) -> tuple:
    """The kind (see ``_KINDS``) of one field of a model class."""
    return _KINDS[cls.__annotations__[field]]


def _check_fields(model) -> None:
    """The rule all models share: an integer field, or an entry of an integer
    tuple, holds an integral value, stored as int; a real field, or an entry
    of a real tuple, holds a finite value, stored as float.  Anything else
    raises ``InvalidModelError`` naming the field."""
    for name in type(model).__annotations__:
        many, entry_type = _kind(type(model), name)
        value = getattr(model, name)
        entries = tuple(map(float, value)) if many else (float(value),)
        if entry_type is int:
            if not all(map(float.is_integer, entries)):
                raise InvalidModelError(f"{name} must be an integer, got {value!r}")
            entries = tuple(map(int, value)) if many else (int(value),)
        elif not all(map(math.isfinite, entries)):
            raise InvalidModelError(f"{name} must be finite, got {value!r}")
        object.__setattr__(model, name, entries if many else entries[0])


@dataclass(frozen=True)
class UncorrelatedWishart:
    """Spectrum of X X^H for an iid complex Gaussian dim x n matrix, with
    integers n >= dim >= 1."""

    dim: int
    n: int

    def __post_init__(self):
        _check_fields(self)
        if self.dim < 1:
            raise InvalidModelError(f"dim must be >= 1, got {self.dim}")
        if self.n < self.dim:
            raise InvalidModelError(f"n >= dim required, got n={self.n} < dim={self.dim}")


@dataclass(frozen=True)
class CorrelatedWishart:
    """Nonzero spectrum of X Sigma X^H; phi holds the distinct eigenvalues of
    Sigma^(-1), finite and in decreasing order, with integer multiplicities
    mult summing to the integer n.

    The rank-deficient case p > n is accepted; the number of random
    eigenvalues is always min(p, n).
    """

    p: int
    n: int
    phi: tuple[float, ...]
    mult: tuple[int, ...]

    def __post_init__(self):
        if any(not float(v).is_integer() for v in self.mult):
            raise InvalidModelError(f"multiplicities must be integers: {self.mult}")
        _check_fields(self)
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
    """Wishart spectrum under a spiked covariance: one finite eigenvalue
    sigma1, the remaining dim-1 equal to sigma2 < sigma1; integers n >= dim."""

    dim: int
    n: int
    sigma1: float
    sigma2: float

    def __post_init__(self):
        _check_fields(self)
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
    """Spectrum of X X^H with nonzero mean; mu holds the finite positive
    eigenvalues of the mean's Gram matrix in decreasing order; integers
    n >= dim."""

    dim: int
    n: int
    mu: tuple[float, ...]

    def __post_init__(self):
        _check_fields(self)
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
    """Gaussian unitary ensemble of Hermitian dim x dim matrices, dim an
    integer."""

    dim: int

    def __post_init__(self):
        _check_fields(self)
        if self.dim < 1:
            raise InvalidModelError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class Beta:
    """Multivariate beta (double Wishart) spectrum on (0, 1) of integer dim,
    with integer weight exponents m and n."""

    dim: int
    m: int
    n: int

    def __post_init__(self):
        _check_fields(self)
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

    Monomial tilts, and exponential tilts of the gamma weights, keep the
    closed forms; a callable, or an exponential tilt of the Gaussian or beta
    weight, takes the quadrature in ``KernelForm._segments``.
    """

    power: int = 0
    rate: float = 0.0
    fn: Optional[Callable[[float], float]] = None

    def __call__(self, x: float) -> float:
        out = x**self.power * math.exp(self.rate * x)
        if self.fn is not None:
            out *= self.fn(x)
        return out


IDENTITY_TILT = Tilt()


# ---------------------------------------------------------------------------
# array helpers: whole slices in signed-log form, one row per abscissa
# ---------------------------------------------------------------------------


def _rows(values: np.ndarray, ndim: int) -> np.ndarray:
    """A vector with one value per row, shaped to broadcast against rows of
    ``ndim``-dimensional arrays."""
    return values.reshape((-1,) + (1,) * ndim)


def _log_pows(xs: np.ndarray, powers) -> np.ndarray:
    """Logs of ``x^powers`` for each x >= 0 of a vector, elementwise, with
    ``0^0 = 1``: one row per x."""
    values = xs.tolist()
    out = powers * _rows(np.array([math.log(v) if v else 0.0 for v in values]), np.ndim(powers))
    if 0.0 in values:
        out[xs == 0.0] = np.where(np.equal(powers, 0), 0.0, -_INF)
    return out


def _signed(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slice arrays with the signed-log convention: sign 0 exactly at -inf."""
    return np.where(logs == -_INF, 0.0, signs), logs


def _power_rows(xs: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of ``x^p`` on the whole real axis, with ``0^0 = 1``: one
    row per power of an integer vector, one column per abscissa."""
    signs = np.where(np.outer(powers % 2 == 1, xs < 0.0), -1.0, 1.0)
    return _signed(signs, _log_pows(np.abs(xs), powers).T)


def _log_diff(l1: np.ndarray, l2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of ``e^l1 - e^l2``, elementwise."""
    hi = np.maximum(l1, l2)
    # equal logs give log(0) = -inf; both -inf gives NaN, replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = hi + np.log(-np.expm1(np.minimum(l1, l2) - hi))
    logs = np.where(hi == -_INF, -_INF, logs)
    return _signed(np.where(l1 > l2, 1.0, -1.0), logs)


def _gamma_table(s0: float, idx: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logs of ``Gamma(s, y)`` and ``gamma(s, y)`` at the shapes ``s = s0 + idx``
    of an integer index array, one row per limit, from one table of the
    family."""
    if idx.min() < 0:
        raise ValueError(f"gamma shape must be positive, got {s0 + idx.min()}")
    upper, lower = incomplete_gamma_table(s0, int(idx.max()) + 1, y)
    return upper[:, idx], lower[:, idx]


def _gamma_diff(
    s0: float, idx: np.ndarray, at_a: tuple, at_b: tuple, yb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of the integrals of ``t^(s-1) e^(-t)`` over (ya, yb) from
    the tables at both limits: the lower functions' difference where
    ``yb < s``, the upper functions' difference elsewhere, so that two nearly
    equal values are never subtracted."""
    (upper_a, lower_a), (upper_b, lower_b) = at_a, at_b
    below = s0 + idx > _rows(yb, idx.ndim)
    return _log_diff(np.where(below, lower_b, upper_a), np.where(below, lower_a, upper_b))


def _gamma_segments(
    s0: float, idx: np.ndarray, ya: np.ndarray, yb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of the integrals of ``t^(s-1) e^(-t)`` over each (ya, yb)
    at the shapes ``s = s0 + idx``, from one table pass at both limits."""
    count = len(ya)
    upper, lower = _gamma_table(s0, idx, np.concatenate((ya, yb)))
    return _gamma_diff(s0, idx, (upper[:count], lower[:count]), (upper[count:], lower[count:]), yb)


def _gauss_segments(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of the integrals of ``x^q e^(-x^2)`` over each (a, b).

    u = x^2 maps x^q e^(-x^2) to a gamma weight of shape (q+1)/2: the even
    powers form the half-integer family, the odd ones the integer family,
    and either way the shape's index in its family is q // 2; odd powers
    flip sign on the negative half-axis.  One table pass per family at both
    limits serves the three cases: a segment right of the origin, one left
    of it, and one that straddles it."""
    count = len(a)
    squares = np.concatenate((a * a, b * b))
    idx = q // 2
    # per segment: right of the origin, left of it, or across it
    side = [0 if lo >= 0.0 else 1 if hi <= 0.0 else 2 for lo, hi in zip(a.tolist(), b.tolist())]
    family = []
    for s0 in (0.5, 1.0):
        upper, lower = _gamma_table(s0, idx, squares)
        at_a, at_b = (upper[:count], lower[:count]), (upper[count:], lower[count:])
        cases = {}
        for case in set(side):
            if case == 0:
                cases[case] = _gamma_diff(s0, idx, at_a, at_b, squares[count:])
            elif case == 1:
                signs, logs = _gamma_diff(s0, idx, at_b, at_a, squares[:count])
                cases[case] = (-signs if s0 == 1.0 else signs, logs)
            elif s0 == 1.0:
                cases[case] = _log_diff(at_b[1], at_a[1])
            else:
                cases[case] = (np.ones(at_a[1].shape), np.logaddexp(at_b[1], at_a[1]))
        signs, logs = cases.pop(side[0])
        for case, (case_signs, case_logs) in cases.items():
            rows = _rows(np.array([s == case for s in side]), idx.ndim)
            signs, logs = np.where(rows, case_signs, signs), np.where(rows, case_logs, logs)
        family.append((signs, logs + math.log(0.5)))
    (even_signs, even_logs), (odd_signs, odd_logs) = family
    odd_q = q % 2 == 1
    return np.where(odd_q, odd_signs, even_signs), np.where(odd_q, odd_logs, even_logs)


def _beta_segments(p: np.ndarray, q: float, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs and logs of the integrals of ``x^(p-1) (1-x)^(q-1)`` over the part
    of each (a, b) inside [0, 1]: the lower regularized incomplete beta
    functions' difference where b is below the mean ``p / (p + q)``, the
    upper ones' elsewhere, as in ``_gamma_diff``."""
    from scipy.special import betainc, betaincc, betaln

    a, b = _rows(np.clip(a, 0.0, 1.0), p.ndim), _rows(np.clip(b, 0.0, 1.0), p.ndim)
    with np.errstate(divide="ignore"):
        lower_a, lower_b = np.log(betainc(p, q, a)), np.log(betainc(p, q, b))
        upper_a, upper_b = np.log(betaincc(p, q, a)), np.log(betaincc(p, q, b))
    below = b < p / (p + q)
    signs, logs = _log_diff(np.where(below, lower_b, upper_a), np.where(below, lower_a, upper_b))
    return signs, logs + betaln(p, q)


# ---------------------------------------------------------------------------
# kernel forms
# ---------------------------------------------------------------------------


class KernelForm:
    """Kernel decomposition shared by all ensembles.

    A kernel is described twice, by two independent array rules.  ``rows``
    gives Phi, Psi and xi at a vector of abscissae, and ``const_rows`` the
    constant block; ``ordered_density`` reads them.  ``_points`` and
    ``_segments``, behind ``slice``, fill the weighted row products at a
    stack of abscissae or over a stack of segments; the engine reads them.
    ``m`` is the number of random eigenvalues, ``n >= m`` the kernel
    dimension; columns m+1..n of the second determinant are constants.
    ``log_k`` is the normalizing constant.
    """

    model: EnsembleModel
    m: int
    n: int
    support: tuple
    log_k: SignedLog
    # fastest admissible exponential tilt rate; inf when the weight decays
    # faster than any exponential
    max_exp_rate: float = _INF

    # -- row rule: Phi, Psi and xi at a vector of abscissae --------------------

    def rows(self, xs: np.ndarray) -> tuple:
        """Phi (m x L) and Psi (n x L) as pairs of sign and log arrays, and the
        logs of xi (L), at a vector of L abscissae inside the support."""
        raise NotImplementedError

    @functools.cached_property
    def const_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Signs and logs of the (n-m) x n constant block C: row k-m-1 holds
        column k of the second determinant, for k = m+1..n."""
        return np.zeros((0, self.n)), np.zeros((0, self.n))

    @functools.cached_property
    def memo(self) -> dict:
        """Values derived from this kernel by the statistics layer (grouping
        plans as row indices, the checked and scaled constant rows, marginal
        quadrature cuts, the densities at quadrature nodes, and the slices of
        the last call that filled any, with their scaled rows: its point
        slices and its segment slices of every tilt, read-only); they are
        dropped with the kernel, so ``kernel_form.cache_clear()`` clears them
        too."""
        return {}

    # -- table rule: the weighted row products at a point or over a segment ----

    def _check_rate(self, tilt: Tilt) -> None:
        if tilt.rate >= self.max_exp_rate:
            raise ValueError(
                f"divergent integral: exponential tilt rate {tilt.rate} >= "
                f"weight decay rate {self.max_exp_rate}"
            )

    def slice(self, key) -> tuple[np.ndarray, np.ndarray]:
        """Signs and logs of the n x n slice named by a point abscissa or a
        segment key ``(a, b, tilt)``: entry (i, j) is phi_i * xi * psi_j, with
        bare xi * psi_j on the rows past m, at the point or integrated over
        the segment against the tilt.

        The abscissa, or either endpoint, may also be a vector: the slices at
        every abscissa, or over every segment, come back stacked along a
        leading axis from one array pass, each equal to its slice filled
        alone.  Subclasses fill a stack of points (``_points``) and of
        segments (``_segments``).
        """
        if isinstance(key, tuple):
            a, b, tilt = key
            self._check_rate(tilt)
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            batched = max(a.ndim, b.ndim)
            if a.shape != b.shape:
                a, b = (np.full(b.shape, a), b) if a.ndim == 0 else (a, np.full(a.shape, b))
            signs, logs = self._segments(a.reshape(-1), b.reshape(-1), tilt)
        else:
            xs = np.asarray(key, dtype=float)
            signs, logs = self._points(xs.reshape(-1))
            batched = xs.ndim
        return (signs, logs) if batched else (signs[0], logs[0])

    def _points(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _segments(self, a: np.ndarray, b: np.ndarray, tilt: Tilt) -> tuple[np.ndarray, np.ndarray]:
        """Segment slices for tilts with no closed form, which integrate the
        point slice times the tilt with the batched adaptive Gauss-Kronrod
        rule (``quadrature.integrate``), one quadrature per segment and one
        point-slice pass per round.  The tilt is composed in log scale, since
        ``e^(rate x)`` alone overflows at far nodes.  Each entry is divided
        by its untilted integral over the half of the segment on the longer
        side of the origin: a closed form with no sign change that holds at
        least half of the entry's magnitude (``|x|^q`` times the Gaussian
        weight is even).  Under max-norm error control, that gives every
        entry relative accuracy, not only the largest.
        """
        out = [self._tilted_segment(lo, hi, tilt) for lo, hi in zip(a.tolist(), b.tolist())]
        return np.stack([o[0] for o in out]), np.stack([o[1] for o in out])

    def _tilted_segment(self, a: float, b: float, tilt: Tilt) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = max(a, self.support[0]), min(b, self.support[1])
        if hi <= lo:
            return np.zeros((self.n, self.n)), np.full((self.n, self.n), -_INF)
        half = (max(lo, 0.0), hi) if hi >= -lo else (lo, min(hi, 0.0))
        scale = self.slice((*half, IDENTITY_TILT))[1]

        def f(xs: np.ndarray) -> np.ndarray:
            signs, logs = self._points(xs)
            out = signs * np.exp(logs - scale + _rows(tilt.rate * xs + _log_pows(np.abs(xs), tilt.power), 2))
            if tilt.power % 2:
                out = np.where(_rows(xs < 0.0, 2), -out, out)
            if tilt.fn is None:
                return out
            # far nodes, where every weighted entry underflows, never reach
            # the callable: e^(nu x) there raises OverflowError
            live = out.reshape(len(xs), -1).any(axis=1).tolist()
            return out * _rows(np.array([tilt.fn(x) if on else 1.0 for x, on in zip(xs.tolist(), live)]), 2)

        # a segment over the whole line is split at the origin
        pieces = [(lo, 0.0, 1.0), (0.0, hi, 1.0)] if lo == -_INF and hi == _INF else [(lo, hi, 1.0)]
        val = integrate(f, pieces, 0.0, _TILT_EPSREL, _TILT_PANELS)
        with np.errstate(divide="ignore"):
            return _signed(np.sign(val), np.log(np.abs(val)) + scale)

    # -- direct density -------------------------------------------------------

    def ordered_density(self, xs) -> float:
        """Direct kernel evaluation of the full ordered joint density,
        ``K * det Phi * det[Psi | C^T] * prod xi``: 0 outside the support, at
        an infinite abscissa, or where the values are not strictly decreasing
        (at a tie the Vandermonde factor vanishes)."""
        xs = [float(v) for v in xs]
        if len(xs) != self.m:
            raise ValueError(f"expected {self.m} eigenvalues, got {len(xs)}")
        if any(math.isnan(v) for v in xs):
            raise ValueError("abscissa is NaN")
        lo, hi = self.support
        if not all(lo <= v <= hi and abs(v) < _INF for v in xs) or any(a <= b for a, b in zip(xs, xs[1:])):
            return 0.0
        (phi_signs, phi_logs), (psi_signs, psi_logs), log_xi = self.rows(np.array(xs))
        const_signs, const_logs = self.const_rows
        # Phi padded to n x n with an identity block, stacked on [Psi | C^T]:
        # both determinants in one call
        m, n = self.m, self.n
        signs = np.zeros((2, n, n))
        logs = np.full((2, n, n), -_INF)
        signs[0, :m, :m], logs[0, :m, :m] = phi_signs, phi_logs
        signs[0, range(m, n), range(m, n)], logs[0, range(m, n), range(m, n)] = 1.0, 0.0
        signs[1], logs[1] = np.hstack((psi_signs, const_signs.T)), np.hstack((psi_logs, const_logs.T))
        det_signs, det_logs = _batch_det(signs, logs)
        det = SignedLog.from_log(float(det_logs.sum() + log_xi.sum()), int(det_signs.prod()))
        return (self.log_k * det).to_float()


class _MonomialSquareKernel(KernelForm):
    """Square kernels whose Phi and Psi rows are plain monomials x^(i-1)."""

    @functools.cached_property
    def _hankel(self) -> np.ndarray:
        """The power i + j of entry (i, j), 0-based."""
        return np.add.outer(np.arange(self.n), np.arange(self.n))


class _GammaKernel(KernelForm):
    """Kernels whose weighted entry (i, j) is ``sign * x^power * e^(-x/scale)``
    on (0, inf); subclasses declare that triple in ``_entry``, and segments
    are incomplete gamma functions.

    ``slice`` evaluates the rule on the cached arrays of triples.  A stack of
    segment slices needs one incomplete-gamma table per distinct scale, with
    one row per endpoint, gathered by power (by i+j for a Hankel kernel).  A
    monomial or exponential tilt shifts the power or the rate; a callable
    one takes the quadrature in ``KernelForm._segments``.

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

    @functools.cached_property
    def _scale_groups(self) -> tuple:
        """Per distinct scale: its decay rate, the entries with that scale,
        and their signs and powers."""
        sign, power, scale = self._entries
        groups = []
        for sc in sorted(set(scale.ravel().tolist())):
            cols = scale == sc
            groups.append((1.0 / sc, cols, sign[cols], power[cols]))
        return tuple(groups)

    def _points(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sign, power, scale = self._entries
        return _signed(sign, _log_pows(xs, power) - _rows(xs, 2) / scale)

    def _segments(self, a: np.ndarray, b: np.ndarray, tilt: Tilt) -> tuple[np.ndarray, np.ndarray]:
        if tilt.fn is not None:
            return super()._segments(a, b, tilt)
        a = np.maximum(a, 0.0)
        signs = np.zeros((len(a), self.n, self.n))
        logs = np.full((len(a), self.n, self.n), -_INF)
        for inv_scale, cols, sign, power in self._scale_groups:
            rate = inv_scale - tilt.rate
            q = power + tilt.power
            ss, sl = _gamma_segments(1.0, q, a * rate, b * rate)
            signs[:, cols] = sign * ss
            logs[:, cols] = sl - (q + 1.0) * math.log(rate)
        return _signed(signs, logs)


class _UncorrelatedKernel(_GammaKernel):
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

    def rows(self, xs: np.ndarray) -> tuple:
        monomials = _power_rows(xs, np.arange(self.m))
        return monomials, monomials, _log_pows(xs, self.model.n - self.model.dim) - xs

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

    def rows(self, xs: np.ndarray) -> tuple:
        monomials = _power_rows(xs, np.arange(self.m))
        return monomials, monomials, -xs * xs

    @functools.cached_property
    def _odd(self) -> np.ndarray:
        return self._hankel % 2 == 1

    def _points(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = _rows(xs, 2)
        return _signed(np.where((x < 0) & self._odd, -1.0, 1.0), _log_pows(np.abs(xs), self._hankel) - x * x)

    def _segments(self, a: np.ndarray, b: np.ndarray, tilt: Tilt) -> tuple[np.ndarray, np.ndarray]:
        if tilt.fn is not None or tilt.rate != 0.0:
            return super()._segments(a, b, tilt)
        return _gauss_segments(self._hankel + tilt.power, a, b)


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

    def rows(self, xs: np.ndarray) -> tuple:
        monomials = _power_rows(xs, np.arange(self.m))
        return monomials, monomials, _log_pows(xs, self.model.m) + _log_pows(1.0 - xs, self.model.n)

    @functools.cached_property
    def _q(self) -> np.ndarray:
        return self._hankel + self.model.m

    def _points(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _signed(1.0, _log_pows(xs, self._q) + _rows(_log_pows(1.0 - xs, self.model.n), 2))

    def _segments(self, a: np.ndarray, b: np.ndarray, tilt: Tilt) -> tuple[np.ndarray, np.ndarray]:
        if tilt.fn is not None or tilt.rate != 0.0:
            return super()._segments(a, b, tilt)
        return _beta_segments(self._q + tilt.power + 1.0, self.model.n + 1.0, a, b)


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

    def rows(self, xs: np.ndarray) -> tuple:
        # Phi_i = (-x)^(i-1); Psi_1 = e^(-x/sigma1), Psi_j = x^(m-j) e^(-x/sigma2)
        m = self.m
        phi = _signed(np.where(np.arange(m) % 2, -1.0, 1.0)[:, None], _log_pows(xs, np.arange(m)).T)
        scale = np.array([self.model.sigma1] + [self.model.sigma2] * (m - 1))
        psi_logs = _log_pows(xs, np.r_[0, m - np.arange(2, m + 1)]).T - xs / scale[:, None]
        return phi, _signed(1.0, psi_logs), _log_pows(xs, self.model.n - m)

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
        # rate phi_e(j) of the group of kernel row j, and its descending
        # offset d(j) within the group
        bounds = np.cumsum(model.mult)
        j = np.arange(1, model.n + 1)
        group = np.searchsorted(bounds, j)
        self._rate = np.array(model.phi)[group]
        self._d = bounds[group] - j
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

    def rows(self, xs: np.ndarray) -> tuple:
        # Phi_i = x^(i-1); Psi_j = (-x)^d(j) e^(-rate_j x)
        logs = _log_pows(xs, self._d).T - np.outer(self._rate, xs)
        psi = _signed(np.where(self._d % 2, -1.0, 1.0)[:, None], logs)
        return _power_rows(xs, np.arange(self.m)), psi, _log_pows(xs, self.model.p - self.m)

    @functools.cached_property
    def const_rows(self) -> tuple[np.ndarray, np.ndarray]:
        # column k, row j: the falling factorial (n-k)! / (n-k-d(j))! times
        # rate_j^(n-k-d(j)); log gamma is +inf at the poles d(j) > n-k,
        # where the entry is 0
        a = (self.n - np.arange(self.m + 1, self.n + 1))[:, None]
        k = a - self._d
        low = min(0, int(k.min(initial=0)))
        log_fact = log_gamma_range(1.0, low, self.n - self.m)
        return _signed(1.0, log_fact[a - low] - log_fact[k - low] + k * np.log(self._rate))

    def _entry(self, i: int, j: int) -> tuple:
        # phi_i = x^(i-1) on the random rows, bare xi on the rows past m
        d = self._d[j - 1]
        zeta = i - 1 if i <= self.m else 0
        sign = -1 if d % 2 else 1
        return sign, self.model.p - self.m + zeta + d, 1.0 / self._rate[j - 1]


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
        full = _det_from_arrays(*self.slice((0.0, _INF, IDENTITY_TILT)))
        if full.sign == 0:
            raise NumericError(
                f"{model}: the full-support determinant underflows to 0; its rows are scaled by their "
                f"largest entry, the e^mu-sized series column (mu = {model.mu[0]:g}), which leaves the "
                "plain columns at 0"
            )
        self.log_k = SignedLog.one() / full

    def rows(self, xs: np.ndarray) -> tuple:
        # Phi_i = x^(m-i); Psi_j = 0F1(b0; mu_j x) / (n-m)! for j <= rank, x^(m-j) past it
        r = self.model.rank
        monomials = _power_rows(xs, self.m - np.arange(1, self.m + 1))
        psi_signs, psi_logs = _power_rows(xs, self.m - np.arange(1, self.n + 1))
        series = [[hyp0f1(self._b0, mu * x).logmag for x in xs.tolist()] for mu in self.model.mu]
        psi_signs[:r], psi_logs[:r] = 1.0, np.array(series) - self._log_norm
        return monomials, (psi_signs, psi_logs), _log_pows(xs, self.model.n - self.model.dim) - xs

    def _entry(self, i: int, j: int) -> tuple:
        return 1, self.model.n + self.model.dim - i - j, 1.0

    def _points(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        signs, logs = super()._points(xs)
        r = self.model.rank
        signs[..., :r], logs[..., :r] = _signed(1.0, self._series_points(xs))
        return signs, logs

    def _segments(self, a: np.ndarray, b: np.ndarray, tilt: Tilt) -> tuple[np.ndarray, np.ndarray]:
        signs, logs = super()._segments(a, b, tilt)
        if tilt.fn is None:
            r = self.model.rank
            signs[..., :r], logs[..., :r] = _signed(1.0, self._series_segments(a, b, tilt))
        return signs, logs

    def _series_points(self, xs: np.ndarray) -> np.ndarray:
        lp = _log_pows(xs, self.model.n - np.arange(1, self.n + 1))
        series = np.array([[hyp0f1(self._b0, mu * x).logmag for mu in self.model.mu] for x in xs.tolist()])
        return lp[:, :, None] - xs[:, None, None] + series.reshape(len(xs), 1, -1) - self._log_norm

    def _series_segments(self, a: np.ndarray, b: np.ndarray, tilt: Tilt) -> np.ndarray:
        """The series columns over each segment; a segment's series stops at
        the first doubling of its term count that converges, whichever
        segments it is summed with."""
        rate = 1.0 - tilt.rate
        q = self.model.n - np.arange(1, self.n + 1) + tilt.power
        log_mu = np.log(self.model.mu)[:, None, None]
        out = np.empty((len(a), self.n, self.model.rank))
        todo = np.arange(len(a))
        terms = 32
        while terms <= 4096:
            k = np.arange(terms)
            log_b0 = log_gamma_range(1.0, self.model.n - self.m, self.model.n - self.m + terms)
            log_coef = k * log_mu - (log_b0 - log_b0[0]) - log_gamma_range(1.0, 0, terms)
            p = q[:, None] + k
            _, log_int = _gamma_segments(1.0, p, np.maximum(a[todo], 0.0) * rate, b[todo] * rate)
            t = log_coef + (log_int - (p + 1.0) * math.log(rate))[:, None]
            total = np.logaddexp.reduce(t, axis=-1)
            done = np.all((t[..., -1] <= total - 40.0) & (t[..., -1] <= t[..., -2]), axis=(1, 2))
            out[todo[done]] = (total[done] - self._log_norm).transpose(0, 2, 1)
            todo = todo[~done]
            if not len(todo):
                return out
            terms *= 2
        raise ArithmeticError(f"noncentral series stalled on ({a[todo[0]]}, {b[todo[0]]}) with {tilt}")


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

# spec name -> model class and its (key, field) pairs in spec order; a
# field's kind says how its value is read and written
_SPECS = {
    "uncorrelated-wishart": (UncorrelatedWishart, (("M", "dim"), ("n", "n"))),
    "correlated-wishart": (CorrelatedWishart, (("p", "p"), ("n", "n"), ("phi", "phi"), ("mult", "mult"))),
    "spiked-wishart": (SpikedWishart, (("M", "dim"), ("n", "n"), ("sigma1", "sigma1"), ("sigma2", "sigma2"))),
    "noncentral-wishart": (NoncentralWishart, (("M", "dim"), ("n", "n"), ("mu", "mu"))),
    "gue": (GUE, (("M", "dim"),)),
    "beta": (Beta, (("M", "dim"), ("m", "m"), ("n", "n"))),
}
_SPEC_OF = {cls: (name, pairs) for name, (cls, pairs) in _SPECS.items()}


def _read(key: str, raw: str, many: bool, entry_type: type):
    """A spec value read as its field's type: an integer, a number, or a
    comma-separated number list (whose entries the model checks)."""
    try:
        return tuple(float(v) for v in raw.split(",")) if many else entry_type(raw)
    except ValueError:
        what = "a comma-separated number list" if many else {int: "an integer", float: "a number"}[entry_type]
        raise ValueError(f"key {key!r} must be {what}, got {raw!r}") from None


def _fmt(v) -> str:
    # shortest digits that parse back to the same number; whole numbers bare
    text = repr(v)
    return text[:-2] if text.endswith(".0") else text


def parse_spec(text: str) -> EnsembleModel:
    """Parse a flat ensemble spec like
    ``correlated-wishart p=4 n=6 phi=2.0,1.0 mult=2,4``.

    The ensemble name appears once, as the spec's only bare word or as
    ``ensemble=<name>``, and each key appears once.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty ensemble spec")
    name, kv = None, {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if eq and key != "ensemble":
            if key in kv:
                raise ValueError(f"key {key!r} appears twice in ensemble spec")
            kv[key] = value
        elif name is None:
            name = value if eq else tok
        elif eq:
            raise ValueError(f"ensemble spec names two ensembles, {name!r} and {value!r}")
        else:
            raise ValueError(f"unexpected token {tok!r} in ensemble spec")
    if name is None:
        raise ValueError("ensemble spec does not name an ensemble")
    name = name.lower()
    if name not in _SPECS:
        raise ValueError(f"unknown ensemble {name!r}; expected one of {sorted(_SPECS)}")
    cls, pairs = _SPECS[name]
    fields = {}
    for key, field in pairs:
        if key not in kv:
            raise ValueError(f"missing required key {key!r}")
        fields[field] = _read(key, kv.pop(key), *_kind(cls, field))
    model = cls(**fields)
    if kv:
        raise ValueError(f"unknown keys in ensemble spec: {sorted(kv)}")
    return model


def spec_string(model: EnsembleModel) -> str:
    """Flat key-value form accepted back by :func:`parse_spec`."""
    if type(model) not in _SPEC_OF:
        raise InvalidModelError(f"unsupported ensemble {type(model).__name__}")
    name, pairs = _SPEC_OF[type(model)]
    words = [name]
    for key, field in pairs:
        value = getattr(model, field)
        text = ",".join(map(_fmt, value)) if _kind(type(model), field)[0] else _fmt(value)
        words.append(f"{key}={text}")
    return " ".join(words)
