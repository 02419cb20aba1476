"""Marginal and joint statistics of ordered and unordered eigenvalues.

Every statistic here is one rank-3 tensor fed to the grouped permutation
sum, and every tensor is built by ``_assemble`` from one key per eigenvalue
position 1..M.  A key is either a point abscissa ``x``, whose slice holds
the kernel evaluated at ``x``, or a segment ``(a, b, tilt)``, whose slice
holds the kernel integrated over [a, b] under the tilt factor; the kernel
itself fills a key's slice (``KernelForm.slice``).  Each distinct key's
slice is filled once, and all positions sharing a key form one group of the
permutation plan, also when they are not adjacent; this is exact, because
equal keys give equal slices.  Slices M+1..N hold the kernel's constant
columns, one singleton group each.

The callers differ only in their keys.  Fixing L of the M ordered
eigenvalues gives point keys at the fixed ranks and, for each free rank,
the segment between the adjacent fixed values (``SegmentLayout``).
Unordered densities use point keys followed by full-support segments, and
unordered product expectations use one tilted full-support segment per
eigenvalue.

Ordered distribution functions need no tensor: with B and A the slices of
the segments below and above x, and C the constant rows, ``K det[B + t*A;
C]`` is the generating function of the number of eigenvalues above x (the
same Cauchy-Binet argument as behind the operator), so ``P(lambda_ell <=
x)`` sums its first ell coefficients (``_count_distribution``).
Single-eigenvalue expectations integrate the tensor engine's density with
adaptive quadrature, split at levels of the closed-form distribution
function, so the total mass of a marginal stays a check of K that does not
go through the counting polynomial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .ensembles import (
    EnsembleModel,
    IDENTITY_TILT,
    KernelForm,
    Tilt,
    kernel_form,
    spec_string,
)
from .errors import CapabilityError, NumericError
from .pseudodet import (
    EvalStats,
    GroupedPermutationPlan,
    Tensor3,
    _batch_det,
    _det_from_arrays,
    pseudo_det_grouped,
)
from .signedlog import SignedLog
from .specfun import log_factorial

__all__ = [
    "SegmentLayout",
    "CurveGrid",
    "joint_pdf_ordered",
    "pdf_single",
    "pdf_pair",
    "prob_all_in",
    "cdf_single",
    "cdf_curve",
    "expect_single",
    "moment_single",
    "mgf_single",
    "joint_pdf_unordered",
    "expect_product_unordered",
    "moments_unordered",
    "mgf_unordered",
    "curve",
]

_INF = math.inf

# exact enumeration cost walls: factorial growth in the kernel dimension
_MAX_SQUARE_DIM = 8
_MAX_RECT_EIGS = 6
_MAX_RECT_KERNEL = 8

_QUAD_OPTS = dict(epsabs=1e-9, epsrel=1e-8, limit=300)


def _check_capability(kernel: KernelForm) -> None:
    if kernel.n == kernel.m:
        if kernel.m > _MAX_SQUARE_DIM:
            raise CapabilityError(
                f"exact paths support square kernels up to dimension {_MAX_SQUARE_DIM}, "
                f"got {kernel.m}"
            )
    elif kernel.m > _MAX_RECT_EIGS or kernel.n > _MAX_RECT_KERNEL:
        raise CapabilityError(
            f"exact paths support kernels with constant columns up to "
            f"{_MAX_RECT_EIGS} eigenvalues and kernel dimension {_MAX_RECT_KERNEL}, "
            f"got {kernel.m} and {kernel.n}"
        )


def _check_abscissa(x: float) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("abscissa is NaN")
    return x


def _check_rank(kernel: KernelForm, ell: int) -> None:
    if not (1 <= ell <= kernel.m):
        raise ValueError(f"eigenvalue rank {ell} outside 1..{kernel.m}")


def _check_grid(grid: Sequence[float]) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if np.isnan(grid).any():
        raise ValueError("grid contains NaN")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted ascending")
    return grid


# ---------------------------------------------------------------------------
# segment layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentLayout:
    """Fixed eigenvalue positions plus the induced integration segments.

    ``fixed_indices`` are 1-based ranks in ascending order; ``fixed_values``
    are the corresponding abscissae, which must be nonincreasing for the
    density to be nonzero.  Segment s (1-based, up to L+1) covers the free
    ranks strictly between fixed ranks s-1 and s, and integrates from the
    value at fixed rank s (or the lower support edge) up to the value at
    fixed rank s-1 (or the upper support edge).
    """

    m: int
    fixed_indices: tuple
    fixed_values: tuple
    support: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.fixed_indices)
        vals = tuple(float(v) for v in self.fixed_values)
        object.__setattr__(self, "fixed_indices", idx)
        object.__setattr__(self, "fixed_values", vals)
        if len(idx) != len(vals) or not idx:
            raise ValueError("need one abscissa per fixed index")
        if any(i < 1 or i > self.m for i in idx):
            raise ValueError(f"fixed indices {idx} outside 1..{self.m}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"fixed indices must be strictly increasing: {idx}")
        if any(math.isnan(v) for v in vals):
            raise ValueError(f"abscissae must not be NaN: {vals}")

    @property
    def count(self) -> int:
        return len(self.fixed_indices)

    def ordering_holds(self) -> bool:
        lo, hi = self.support
        vals = self.fixed_values
        if any(not (lo <= v <= hi) for v in vals):
            return False
        return all(a >= b for a, b in zip(vals, vals[1:]))

    def segment_bounds(self, s: int) -> tuple:
        """Integration range of segment ``s`` in 1..L+1."""
        if not (1 <= s <= self.count + 1):
            raise ValueError(f"segment index {s} outside 1..{self.count + 1}")
        hi = self.support[1] if s == 1 else self.fixed_values[s - 2]
        lo = self.support[0] if s == self.count + 1 else self.fixed_values[s - 1]
        return lo, hi

    def segment_of(self, k: int) -> int:
        """Segment index of a free rank: the unique s with i_(s-1) <= k < i_s."""
        if k in self.fixed_indices:
            raise ValueError(f"rank {k} is fixed, not free")
        if not (1 <= k <= self.m):
            raise ValueError(f"rank {k} outside 1..{self.m}")
        s = 1
        for i in self.fixed_indices:
            if k > i:
                s += 1
        return s

    def log_order_constant(self) -> float:
        """Log of the combinatorial constant 1 / prod (i_s - i_(s-1) - 1)!."""
        bounds = (0,) + self.fixed_indices + (self.m + 1,)
        return -sum(log_factorial(b - a - 1) for a, b in zip(bounds, bounds[1:]))


def _assemble(kernel: KernelForm, keys: Sequence) -> tuple[Tensor3, GroupedPermutationPlan]:
    """Tensor and exact grouping plan from one slice key per eigenvalue."""
    n, m = kernel.n, kernel.m
    signs = np.zeros((n, n, n))
    logs = np.full((n, n, n), -_INF)
    positions: dict = {}
    for k, key in enumerate(keys):
        positions.setdefault(key, []).append(k)
    for key, ks in positions.items():
        ms, ml = kernel.slice(key)
        signs[:, :, ks] = ms[:, :, None]
        logs[:, :, ks] = ml[:, :, None]
    const_signs, const_logs = kernel.const_rows
    for k in range(m, n):
        signs[k:, :, k] = const_signs[k - m]
        logs[k:, :, k] = const_logs[k - m]
    groups = tuple(map(tuple, positions.values())) + tuple((k,) for k in range(m, n))
    # one plan per grouping, so that it enumerates its representatives once
    plan = kernel.memo.get(("plan", groups))
    if plan is None:
        plan = kernel.memo[("plan", groups)] = GroupedPermutationPlan(n, groups)
    return Tensor3(signs, logs), plan


def _unordered_value(kernel: KernelForm, keys: Sequence, stats: Optional[EvalStats] = None) -> float:
    """Exchangeable statistic: the operator over ``keys``, divided by M!."""
    value = pseudo_det_grouped(*_assemble(kernel, keys), stats)
    scale = kernel.log_k * SignedLog.from_log(-log_factorial(kernel.m))
    return (scale * value).to_float()


# ---------------------------------------------------------------------------
# joint and marginal densities
# ---------------------------------------------------------------------------


def joint_pdf_ordered(
    model: EnsembleModel,
    indices: Sequence[int],
    xs: Sequence[float],
    stats: Optional[EvalStats] = None,
) -> float:
    """Joint density of the ordered eigenvalues at the given ranks."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    layout = SegmentLayout(kernel.m, tuple(indices), tuple(xs), kernel.support)
    # every weight vanishes at an infinite abscissa
    if not layout.ordering_holds() or not all(map(math.isfinite, layout.fixed_values)):
        return 0.0
    fixed = dict(zip(layout.fixed_indices, layout.fixed_values))
    keys = [
        fixed[k] if k in fixed
        else (*layout.segment_bounds(layout.segment_of(k)), IDENTITY_TILT)
        for k in range(1, kernel.m + 1)
    ]
    value = pseudo_det_grouped(*_assemble(kernel, keys), stats)
    scale = SignedLog.from_log(layout.log_order_constant()) * kernel.log_k
    return (scale * value).to_float()


def pdf_single(
    model: EnsembleModel, ell: int, x: float, stats: Optional[EvalStats] = None
) -> float:
    """Marginal density of the ell-th largest eigenvalue."""
    _check_rank(kernel_form(model), ell)
    return joint_pdf_ordered(model, (ell,), (x,), stats)


def pdf_pair(
    model: EnsembleModel,
    ell: int,
    s: int,
    x_ell: float,
    x_s: float,
    stats: Optional[EvalStats] = None,
) -> float:
    """Joint density of the ell-th and s-th largest eigenvalues, s > ell."""
    kernel = kernel_form(model)
    if ell >= s:
        raise ValueError(f"need ell < s, got ell={ell}, s={s}")
    if not (1 <= ell and s <= kernel.m):
        raise ValueError(f"ranks ({ell}, {s}) outside 1..{kernel.m}")
    if x_s > x_ell:
        return 0.0
    return joint_pdf_ordered(model, (ell, s), (x_ell, x_s), stats)


def joint_pdf_unordered(
    model: EnsembleModel,
    count: int,
    xs: Sequence[float],
    stats: Optional[EvalStats] = None,
) -> float:
    """Exchangeable joint density of ``count`` unordered eigenvalues."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    m = kernel.m
    if not (1 <= count <= m):
        raise ValueError(f"subset size {count} outside 1..{m}")
    xs = [_check_abscissa(v) for v in xs]
    if len(xs) != count:
        raise ValueError(f"expected {count} abscissae, got {len(xs)}")
    lo, hi = kernel.support
    if any(not (lo <= v <= hi) or math.isinf(v) for v in xs):
        return 0.0
    return _unordered_value(kernel, xs + [(lo, hi, IDENTITY_TILT)] * (m - count), stats)


# ---------------------------------------------------------------------------
# interval probabilities
# ---------------------------------------------------------------------------


def prob_all_in(
    model: EnsembleModel, a: float, b: float, method: str = "auto"
) -> float:
    """Probability that every eigenvalue lies in [a, b].

    ``method`` selects the square-kernel determinant fast path
    (``"determinant"``), the grouped tensor path (``"tensor"``), or picks the
    fast path automatically whenever it applies.
    """
    kernel = kernel_form(model)
    _check_capability(kernel)
    if a >= b:
        raise ValueError(f"inverted interval [{a}, {b}]")
    lo = max(a, kernel.support[0])
    hi = min(b, kernel.support[1])
    if hi <= lo:
        return 0.0
    if method not in ("auto", "determinant", "tensor"):
        raise ValueError(f"unknown method {method!r}")
    if method == "determinant" and kernel.n != kernel.m:
        raise ValueError("determinant fast path requires a square kernel")
    if method == "auto":
        method = "determinant" if kernel.n == kernel.m else "tensor"

    key = (lo, hi, IDENTITY_TILT)
    if method == "determinant":
        return (kernel.log_k * _det_from_arrays(*kernel.slice(key))).to_float()
    return _unordered_value(kernel, [key] * kernel.m)


# ---------------------------------------------------------------------------
# counting polynomial: ordered distribution functions in closed form
# ---------------------------------------------------------------------------


# share of a circle's peak below which a coefficient reading is rounding noise
_NOISE_SHARE = 1e-13


def _pencil_circles(
    below: tuple, above: tuple, const: tuple, log_radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of ``det[B + t*A; C]`` from its values on circles.

    ``below`` and ``above`` are the m x n signed-log blocks B and A, ``const``
    the constant rows C.  For each log radius, the determinant is taken at
    the m+1 points ``t = r * w^k`` (w the (m+1)-th root of unity) in one
    batched call, and one FFT turns the values into ``coef[j] = c_j r^j /
    scale`` exactly, because the degree is m.  The values are scaled so that
    the largest one on each circle has modulus 1, so ``|coef[j]|`` is also
    the share of the circle's peak that term j carries; ``log scale`` is
    returned with the coefficients.
    """
    (bs, bl), (as_, al), (cs, cl) = below, above, const
    m = bs.shape[0]
    count = len(log_radii)
    mags = np.concatenate(
        [np.logaddexp(bl, al + log_radii[:, None, None]), np.broadcast_to(cl, (count,) + cl.shape)],
        axis=1,
    )
    # pull the largest entry out of every row, then of every column
    row = mags.max(axis=2)
    row = np.where(np.isfinite(row), row, 0.0)
    col = (mags - row[:, :, None]).max(axis=1)
    col = np.where(np.isfinite(col), col, 0.0)
    shift = row[:, :, None] + col[:, None, :]
    with np.errstate(under="ignore"):
        b = bs * np.exp(bl - shift[:, :m])
        a = as_ * np.exp(al + log_radii[:, None, None] - shift[:, :m])
        c = cs * np.exp(cl - shift[:, m:])
    roots = np.exp(2j * np.pi * np.arange(m + 1) / (m + 1))
    top = b[:, None] + roots[None, :, None, None] * a[:, None]
    rest = np.broadcast_to(c[:, None], (count, m + 1) + c.shape[1:])
    sgn, logdet = np.linalg.slogdet(np.concatenate([top, rest], axis=2))
    peak = logdet.max(axis=1)
    values = sgn * np.exp(logdet - peak[:, None])
    coef = np.fft.fft(values, axis=1) / (m + 1)
    return coef.real, row.sum(axis=1) + col.sum(axis=1) + peak


def _count_distribution(kernel: KernelForm, x: float) -> np.ndarray:
    """``P(#{eigenvalues > x} = j)`` for j = 0..m, x inside the support.

    By the generalized Cauchy-Binet identity behind the operator, with B and
    A the kernel slices over the segments below and above x (their first m
    rows) and C the constant rows, ``K * det[B + t*A; C]`` is the generating
    function of the count.  Its end coefficients are determinants:
    ``c_0 = K det[B; C]`` and ``c_m = K det[A; C]``, the interval
    probabilities.  Each inner coefficient c_j is read from the Cauchy
    integral on its own circle, of radius ``sqrt(c_(j-1) / c_(j+1))``, where
    term j carries at least 1/(m+1) of the peak of a log-concave count
    distribution, so it keeps its relative accuracy however small it is
    (Bornemann, Found. Comput. Math. 11, 2011).  The first pass runs on the
    unit circle; later passes take the radii from the readings so far, with
    a reading trusted once its term carries 1e-6 of its circle's peak and
    the others interpolated in log scale, and stop once every term carries
    1/(2(m+1)) of its circle's peak, or after m+2 passes.  A coefficient
    never read above the rounding floor of a circle is zero.
    """
    lo, hi = kernel.support
    m = kernel.m
    const = kernel.const_rows
    below, above = (
        (s[:m], l[:m]) for s, l in (kernel.slice((lo, x, IDENTITY_TILT)), kernel.slice((x, hi, IDENTITY_TILT)))
    )
    ends = [np.stack([np.concatenate([block[k], const[k]]) for block in (below, above)]) for k in (0, 1)]
    end_signs, end_logs = _batch_det(*ends)

    signs, logs, share = np.zeros(m + 1), np.full(m + 1, -_INF), np.zeros(m + 1)
    signs[[0, m]], logs[[0, m]] = end_signs, end_logs
    share[[0, m]] = 1.0
    inner = np.arange(1, m)
    log_radii = np.zeros(m - 1)
    for _ in range(m + 2):
        if share.min() >= 0.5 / (m + 1):
            break
        radii, which = np.unique(log_radii, return_inverse=True)
        coef, scale = _pencil_circles(below, above, const, radii)
        reading = coef[which, inner]
        # below the rounding floor of a circle a reading is no reading
        better = np.abs(reading) > np.maximum(share[1:m], _NOISE_SHARE)
        with np.errstate(divide="ignore"):
            log_c = np.log(np.abs(reading)) + scale[which] - inner * log_radii
        logs[1:m] = np.where(better, log_c, logs[1:m])
        signs[1:m] = np.where(better, np.sign(reading), signs[1:m])
        share[1:m] = np.maximum(share[1:m], np.abs(reading))
        trusted = np.flatnonzero((share >= 1e-6) & np.isfinite(logs))
        if not len(trusted):
            break
        guess = np.interp(np.arange(m + 1), trusted, logs[trusted])
        log_radii = (guess[:-2] - guess[2:]) / 2.0
    with np.errstate(under="ignore"):
        return kernel.log_k.sign * signs * np.exp(logs + kernel.log_k.logmag)


def _rank_cdfs(kernel: KernelForm, x: float) -> np.ndarray:
    """``P(lambda_ell <= x)`` for every rank ell = 1..m at one abscissa.

    ``F_ell = P(count < ell)``.  Whichever of that sum and its complement
    ``P(count >= ell)`` is smaller is summed from the count distribution, so
    both tails keep the relative accuracy of the coefficients, a resolved
    value lies in [0, 1] with no clipping, and the two sums meet in the
    bulk, where a rounding step is far below the growth of F between grid
    points.
    """
    lo, hi = kernel.support
    if x <= lo:
        return np.zeros(kernel.m)
    if x >= hi:
        return np.ones(kernel.m)
    counts = _count_distribution(kernel, x)
    below = np.cumsum(counts)[:-1]
    above = np.cumsum(counts[::-1])[::-1][1:]
    return np.where(below <= above, below, 1.0 - above)


def _resolved_cdf(kernel: KernelForm, ell: int, x: float) -> float:
    """``P(lambda_ell <= x)``, raising where a tail the kernel slices cannot
    resolve reads outside [0, 1]."""
    value = float(_rank_cdfs(kernel, x)[ell - 1])
    if not 0.0 <= value <= 1.0:
        raise NumericError(
            f"P(lambda_{ell} <= {x}) reads {value}: the tail is below the "
            f"resolution of the kernel slices"
        )
    return value


def cdf_single(model: EnsembleModel, ell: int, x: float) -> float:
    """Distribution function of the ell-th largest eigenvalue."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    _check_rank(kernel, ell)
    return _resolved_cdf(kernel, ell, _check_abscissa(x))


def cdf_curve(model: EnsembleModel, ell: int, grid: Sequence[float]) -> np.ndarray:
    """Distribution function on an ascending grid, one closed-form
    evaluation per point."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    _check_rank(kernel, ell)
    grid = _check_grid(grid)
    return np.array([_resolved_cdf(kernel, ell, float(x)) for x in grid])


# ---------------------------------------------------------------------------
# quadrature over one marginal
# ---------------------------------------------------------------------------

# distribution levels of the quadrature cuts: the outer two mark the bulk
# edges, the inner five become split points
_CUT_LEVELS = (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6)
_CUT_GRID = 20


def _bulk_bracket(kernel: KernelForm) -> tuple:
    """An interval holding every rank's bulk: P(lambda_m <= a) and
    P(lambda_1 > b) are both at most the outer cut level.  Steps out from
    the middle of the support, doubling the distance to an infinite edge and
    quartering the distance to a finite one."""
    lo, hi = kernel.support
    tail = _CUT_LEVELS[0]
    if math.isfinite(hi):
        start = (lo + hi) / 2.0
    else:
        start = lo + 1.0 if math.isfinite(lo) else 0.0
    edges = []
    for edge, sign, done in (
        (lo, -1.0, lambda f: f[-1] <= tail),
        (hi, 1.0, lambda f: f[0] >= 1.0 - tail),
    ):
        x, width = start, 1.0
        for _ in range(64):
            if math.isfinite(edge):
                x = edge + (x - edge) / 4.0
            else:
                x, width = x + sign * width, 2.0 * width
            if done(_rank_cdfs(kernel, x)):
                break
        else:
            raise NumericError(f"no bulk edge found toward {edge}")
        edges.append(x)
    return tuple(edges)


def _marginal_cuts(kernel: KernelForm, ell: int) -> tuple:
    """Quadrature split points of one marginal at fixed levels of its
    closed-form distribution function.  The outer two are pushed out by 0.2
    (below) and 0.7 (above) of the span between them, so that the unbounded
    end segment holds a negligible share of a moment's integrand; an end
    segment that starts inside the upper tail costs the adaptive rule more
    subdivisions.  All ranks are placed from one grid of count
    distributions, kept on the kernel."""
    cuts = kernel.memo.get("marginal_cuts")
    if cuts is None:
        a, b = _bulk_bracket(kernel)
        grid = np.linspace(a, b, _CUT_GRID)
        table = np.array([_rank_cdfs(kernel, float(x)) for x in grid])
        lo, hi = kernel.support
        cuts = []
        for col in table.T:
            qs = np.interp(_CUT_LEVELS, np.maximum.accumulate(col), grid)
            spread = max(qs[-1] - qs[0], 1e-3)
            first = max(qs[0] - 0.2 * spread, lo)
            last = min(qs[-1] + 0.7 * spread, hi)
            cuts.append((first, *(float(q) for q in qs[1:-1]), last))
        kernel.memo["marginal_cuts"] = cuts
    return cuts[ell - 1]


def _integrate_marginal(model: EnsembleModel, ell: int, weight: Callable[[float], float]) -> float:
    """Adaptive integral of ``weight(x) * pdf_single(ell, x)`` over the support.

    The density is the tensor engine's, so the total mass stays an
    independent check of the normalizer that the closed-form distribution
    functions share.  The adaptive rule's nodes depend on the weight only
    through its subdivisions, so the densities at the nodes are kept on the
    kernel and expectations of one marginal (the moments of a ``moments``
    request) share most of them."""
    kernel = kernel_form(model)
    _check_rank(kernel, ell)
    lo, hi = kernel.support
    densities = kernel.memo.setdefault(("densities", ell), {})

    def f(x: float) -> float:
        density = densities.get(x)
        if density is None:
            density = densities[x] = pdf_single(model, ell, x)
        # far out the density underflows to 0 before a growing weight overflows
        return weight(x) * density if density else 0.0

    cuts = [lo] + [e for e in _marginal_cuts(kernel, ell) if lo < e < hi] + [hi]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            for a, b in zip(cuts, cuts[1:]):
                val, _ = quad(f, a, b, **_QUAD_OPTS)
                total += val
        except IntegrationWarning as exc:
            raise NumericError(f"marginal quadrature did not converge: {exc}") from exc
    return total


def expect_single(model: EnsembleModel, ell: int, fn: Callable[[float], float]) -> float:
    """Expectation of ``fn`` under the marginal of the ell-th eigenvalue."""
    return _integrate_marginal(model, ell, fn)


def moment_single(model: EnsembleModel, ell: int, order: int) -> float:
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    return expect_single(model, ell, lambda x: x**order)


def mgf_single(model: EnsembleModel, ell: int, nu: float) -> float:
    kernel = kernel_form(model)
    if nu >= kernel.max_exp_rate:
        raise ValueError(
            f"moment generating function diverges: nu={nu} >= decay rate "
            f"{kernel.max_exp_rate}"
        )
    return expect_single(model, ell, lambda x: math.exp(nu * x))


# ---------------------------------------------------------------------------
# unordered product expectations
# ---------------------------------------------------------------------------


def _as_tilt(item) -> Tilt:
    if item is None or item == 1:
        return IDENTITY_TILT
    if isinstance(item, Tilt):
        return item
    if callable(item):
        return Tilt(fn=item)
    raise TypeError(f"cannot interpret {item!r} as a per-eigenvalue factor")


def expect_product_unordered(model: EnsembleModel, factors: Sequence) -> float:
    """Expectation of a product of per-eigenvalue factors over the unordered
    spectrum; one factor per eigenvalue, identity factors allowed."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    m = kernel.m
    tilts = [_as_tilt(f) for f in factors]
    if len(tilts) != m:
        raise ValueError(f"expected {m} factors, got {len(tilts)}")
    lo, hi = kernel.support
    return _unordered_value(kernel, [(lo, hi, tilt) for tilt in tilts])


def moments_unordered(model: EnsembleModel, orders: Sequence[int]) -> float:
    """Joint moment E[prod lambda_k^orders_k] over unordered eigenvalues."""
    if any(o < 0 for o in orders):
        raise ValueError(f"moment orders must be >= 0: {tuple(orders)}")
    return expect_product_unordered(model, [Tilt(power=int(o)) for o in orders])


def mgf_unordered(model: EnsembleModel, nus: Sequence[float]) -> float:
    """Joint moment generating function at the given exponents."""
    kernel = kernel_form(model)
    if any(nu >= kernel.max_exp_rate for nu in nus):
        raise ValueError(
            f"moment generating function diverges: rates {tuple(nus)} reach the "
            f"weight decay rate {kernel.max_exp_rate}"
        )
    return expect_product_unordered(model, [Tilt(rate=float(nu)) for nu in nus])


# ---------------------------------------------------------------------------
# evaluation grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveGrid:
    """A statistic evaluated on a grid, serializable to CSV."""

    xs: tuple
    values: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if len(xs) != len(values):
            raise ValueError("abscissa and value lists must have equal length")
        if any(not math.isfinite(v) for v in values):
            raise ValueError("grid values must be finite")

    def header(self) -> str:
        parts = [f"ensemble={self.meta.get('ensemble', '?')}"]
        parts.append(f"statistic={self.meta.get('statistic', '?')}")
        parts.append(f"indices={self.meta.get('indices', '?')}")
        return "# " + " ".join(parts)

    def write_csv(self, fh) -> None:
        fh.write(self.header() + "\n")
        for x, v in zip(self.xs, self.values):
            fh.write(f"{x:.17g},{v:.17g}\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            self.write_csv(fh)


def curve(
    model: EnsembleModel,
    statistic: str,
    grid: Sequence[float],
    index: Optional[int] = None,
) -> CurveGrid:
    """Evaluate a named statistic over a sorted grid of abscissae."""
    grid = _check_grid(grid)
    meta = {"ensemble": spec_string(model), "statistic": statistic}

    if statistic == "pdf":
        if index is None:
            raise ValueError("statistic 'pdf' needs an eigenvalue index")
        values = [pdf_single(model, index, float(x)) for x in grid]
        meta["indices"] = str(index)
    elif statistic == "cdf":
        if index is None:
            raise ValueError("statistic 'cdf' needs an eigenvalue index")
        values = cdf_curve(model, index, grid)
        meta["indices"] = str(index)
    elif statistic == "unordered-pdf":
        values = [joint_pdf_unordered(model, 1, (float(x),)) for x in grid]
        meta["indices"] = "unordered"
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    return CurveGrid(tuple(grid), tuple(values), meta)
