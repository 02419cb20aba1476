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
"""

from __future__ import annotations

import functools
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
from .pseudodet import EvalStats, GroupedPermutationPlan, Tensor3, _det_from_arrays, pseudo_det_grouped
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
    for k in range(m, n):
        for j in range(n):
            v = kernel.const(j + 1, k + 1)
            signs[k:, j, k] = v.sign
            logs[k:, j, k] = v.logmag
    groups = [tuple(ks) for ks in positions.values()] + [(k,) for k in range(m, n)]
    return Tensor3(signs, logs), GroupedPermutationPlan(n, tuple(groups))


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
    if not layout.ordering_holds():
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
    kernel = kernel_form(model)
    if not (1 <= ell <= kernel.m):
        raise ValueError(f"eigenvalue rank {ell} outside 1..{kernel.m}")
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
    xs = [float(v) for v in xs]
    if len(xs) != count:
        raise ValueError(f"expected {count} abscissae, got {len(xs)}")
    lo, hi = kernel.support
    if any(not (lo <= v <= hi) for v in xs):
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
# quadrature over one marginal
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _pilot_edges(model: EnsembleModel, ell: int) -> tuple:
    """Bulk edges of one marginal from a small pilot sample, used only to
    place quadrature split points."""
    from .montecarlo import sample

    batch = sample(model, 10_000, seed=0x51107)
    col = batch.eigenvalues[:, ell - 1]
    qs = np.quantile(col, [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0])
    spread = max(qs[-1] - qs[0], 1e-3)
    lo = qs[0] - 0.2 * spread
    hi = qs[-1] + 0.35 * spread
    kernel = kernel_form(model)
    lo = max(lo, kernel.support[0])
    hi = min(hi, kernel.support[1])
    return (lo, *[float(q) for q in qs[1:-1]], hi)


def _integrate_marginal(
    model: EnsembleModel, ell: int, lo: float, hi: float, weight=None
) -> float:
    """Adaptive integral of ``weight(x) * pdf_single(ell, x)`` over (lo, hi)."""
    kernel = kernel_form(model)
    lo = max(lo, kernel.support[0])
    hi = min(hi, kernel.support[1])
    if hi <= lo:
        return 0.0
    edges = _pilot_edges(model, ell)

    if weight is None:
        f = lambda x: pdf_single(model, ell, x)
    else:
        f = lambda x: weight(x) * pdf_single(model, ell, x)

    cuts = [lo] + [e for e in edges if lo < e < hi] + [hi]
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


def cdf_single(model: EnsembleModel, ell: int, x: float) -> float:
    """Distribution function of the ell-th largest eigenvalue."""
    kernel = kernel_form(model)
    if not (1 <= ell <= kernel.m):
        raise ValueError(f"eigenvalue rank {ell} outside 1..{kernel.m}")
    if x <= kernel.support[0]:
        return 0.0
    if x >= kernel.support[1]:
        return 1.0
    return _integrate_marginal(model, ell, kernel.support[0], x)


def cdf_curve(model: EnsembleModel, ell: int, grid: Sequence[float]) -> np.ndarray:
    """Distribution function on an ascending grid, integrated cumulatively."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    out = np.empty(len(grid))
    out[0] = cdf_single(model, ell, float(grid[0]))
    for idx in range(1, len(grid)):
        out[idx] = out[idx - 1] + _integrate_marginal(
            model, ell, float(grid[idx - 1]), float(grid[idx])
        )
    return np.clip(out, 0.0, 1.0)


def expect_single(model: EnsembleModel, ell: int, fn: Callable[[float], float]) -> float:
    """Expectation of ``fn`` under the marginal of the ell-th eigenvalue."""
    kernel = kernel_form(model)
    if not (1 <= ell <= kernel.m):
        raise ValueError(f"eigenvalue rank {ell} outside 1..{kernel.m}")
    return _integrate_marginal(model, ell, kernel.support[0], kernel.support[1], weight=fn)


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
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted ascending")
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
