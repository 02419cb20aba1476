"""Marginal and joint statistics of ordered and unordered eigenvalues.

Every statistic here is one rank-3 operator fed to the grouped permutation
sum, and every operator is built by ``_operator`` from one key per
eigenvalue position 1..M.  A key is either a point abscissa ``x``, whose slice holds
the kernel evaluated at ``x``, or a segment ``(a, b, tilt)``, whose slice
holds the kernel integrated over [a, b] under the tilt factor; the kernel
itself fills a key's slice (``KernelForm.slice``).  Each key object's slice
is filled once, and all positions given the same key object form one group
of the permutation plan, also when they are not adjacent; this is exact,
because they share one slice.  Each kernel also keeps the slices of its
last call, and the next call reuses those it asks for again, so every rank
at one abscissa fills the point slice and the segments below and above it
once (``_slices``).  A kernel with constant columns adds its constant
rows below the M gathered rows of every determinant, with no positions of
their own in the plan.  Tied abscissae never reach the operator: two equal
eigenvalues make the Vandermonde factor vanish, so every density at a tie
is exactly 0.

The callers differ only in their keys.  Fixing L of the M ordered
eigenvalues gives point keys at the fixed ranks and, for each free rank,
the segment between the adjacent fixed values (``_ordered_densities``).
Unordered densities use point keys followed by full-support segments, and
unordered product expectations use one tilted full-support segment per
eigenvalue.

The abscissa is a batch axis: a key's point, or a segment's ends, may be a
vector with one entry per abscissa set, and then the slices of all sets are
filled in one kernel pass and stacked, and the permutation sum takes their
determinants together.  A single value is the batch of one,
and every value is bit-identical whatever batch it was computed in, so a
curve, a quadrature round or a cut grid is one call.

Ordered distribution functions need no permutation sum: with B and A the slices of
the segments below and above x, and C the constant rows, ``K det[B + t*A;
C]`` is the generating function of the number of eigenvalues above x (the
same Cauchy-Binet argument as behind the operator), so ``P(lambda_ell <=
x)`` sums its first ell coefficients (``_count_distribution``, which runs
its circles for a batch of abscissae in lockstep).  Single-eigenvalue
expectations integrate the tensor engine's density with a round-based
adaptive Gauss-Kronrod rule on panels cut at levels of the closed-form
distribution function, each round one batched density call, so the total
mass of a marginal stays a check of K that does not go through the
counting polynomial.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

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
    _CHUNK,
    EvalStats,
    GroupedPermutationPlan,
    _batch_det,
    _det_from_arrays,
    _Gather,
    _scale_rows,
    _table_sum,
    _violation,
)
from .quadrature import integrate
from .specfun import log_factorial

__all__ = [
    "CurveGrid",
    "joint_pdf_ordered",
    "pdf_single",
    "pdf_pair",
    "pdf_pair_grid",
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
_DOUBLE = struct.Struct("d").pack

# exact enumeration cost walls: factorial growth in the kernel dimension
_MAX_SQUARE_DIM = 8
_MAX_RECT_EIGS = 6
_MAX_RECT_KERNEL = 8


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


def _check_fixed(m: int, indices: Sequence[int], values: Sequence) -> tuple:
    """The fixed ranks of ordered eigenvalues as a tuple, after checking them
    and their abscissae: one abscissa (or grid of them) per rank, the ranks
    strictly increasing within 1..m, and no abscissa NaN."""
    idx = tuple(int(i) for i in indices)
    if len(idx) != len(values) or not idx:
        raise ValueError("need one abscissa per fixed index")
    if any(i < 1 or i > m for i in idx):
        raise ValueError(f"fixed indices {idx} outside 1..{m}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"fixed indices must be strictly increasing: {idx}")
    if any(np.isnan(v).any() for v in values):
        raise ValueError("abscissae must not be NaN")
    return idx


def _check_grid(grid: Sequence[float]) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if np.isnan(grid).any():
        raise ValueError("grid contains NaN")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted ascending")
    return grid


def _log_order_constant(m: int, indices: Sequence[int]) -> float:
    """Log of ``1 / prod (i_s - i_(s-1) - 1)!`` over the segments between the
    fixed ranks ``i_s`` (with ``i_0 = 0`` and ``i_(L+1) = m + 1``)."""
    bounds = (0, *indices, m + 1)
    return -sum(log_factorial(b - a - 1) for a, b in zip(bounds, bounds[1:]))


def _slices(kernel: KernelForm, keys: Sequence, count: int, stats: Optional[EvalStats] = None) -> list:
    """The slices of several keys at ``count`` abscissa sets, one stack per
    key: ``count`` slices for a key with a vector, and one slice for a key
    with none, which the operator broadcasts across the sets.  The keys to
    fill of one tilt share one kernel pass, the point keys counting as one
    tilt.

    A slice is checked when it is filled, as ``Tensor3`` checks its entries,
    and its first m rows, the only ones a nonzero term of the operator
    reads, are scaled by their largest magnitudes (``pseudodet._scale_rows``).
    Each key gets a pair: the slice stack, as signs and logs, and its scaled
    rows with their log shifts.

    Each kernel keeps the pairs of its most recent call in ``kernel.memo``,
    read-only and named by exact value: the tilt and the float bytes of the
    point or of the segment ends.  A call fills only the keys it does not
    find there, and its own pairs then replace the memo; a slice that fails
    its check raises ``NumericError`` and never enters it.  A slice is
    bit-identical in any batch, so a reused slice is the one the call would
    have filled."""
    last = kernel.memo.get("slices", {})
    names, out, passes = [], [], {}
    for i, key in enumerate(keys):
        tilt, parts = (key[2], key[:2]) if isinstance(key, tuple) else (None, (key,))
        rows, name = 1, [tilt]
        for value in parts:
            if isinstance(value, np.ndarray):
                rows = count if value.ndim else rows
                name.append((value.shape, np.asarray(value, dtype=float).tobytes()))
            else:
                name.append(_DOUBLE(value))
        names.append(tuple(name))
        out.append(last.get(names[i]))
        if out[i] is None:
            passes.setdefault(tilt, []).append((i, parts, rows))
    if stats is not None:
        filled = sum(map(len, passes.values()))
        stats.slices_filled += filled
        stats.slices_reused += len(keys) - filled
    for tilt, members in passes.items():
        spans = list(itertools.accumulate((rows for _, _, rows in members), initial=0))
        ends = np.empty((len(members[0][1]), spans[-1]))
        for (_, parts, _), start, stop in zip(members, spans, spans[1:]):
            for e, value in enumerate(parts):
                ends[e, start:stop] = value
        signs, logs = kernel.slice(ends[0] if tilt is None else (ends[0], ends[1], tilt))
        found = _violation(signs, logs)
        if found is not None:
            what, (row, a, b) = found
            i = next(i for (i, _, _), stop in zip(members, spans[1:]) if row < stop)
            raise NumericError(f"{what} in slice {i + 1} at ({a + 1}, {b + 1})")
        top, shift, _ = _scale_rows(signs[:, : kernel.m], logs[:, : kernel.m])
        signs, logs, top, shift = map(_read_only, (signs, logs, top, shift))
        for (i, _, _), start, stop in zip(members, spans, spans[1:]):
            out[i] = (signs[start:stop], logs[start:stop]), (top[start:stop], shift[start:stop])
    kernel.memo["slices"] = dict(zip(names, out))
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


def _const_rows(kernel: KernelForm) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's constant block C, checked and scaled by row once per
    kernel and kept in ``kernel.memo``: the scaled rows and their shifts."""
    const = kernel.memo.get("const")
    if const is None:
        signs, logs = kernel.const_rows
        found = _violation(signs, logs)
        if found is not None:
            what, (a, b) = found
            raise NumericError(f"{what} in constant row {a + 1} at column {b + 1}")
        const = kernel.memo["const"] = _scale_rows(signs, logs)[:2]
    return const


def _operator(kernel: KernelForm, keys: Sequence, count: int, stats: Optional[EvalStats] = None) -> tuple:
    """The operator over one slice key per eigenvalue position, at ``count``
    abscissa sets: a point key is an abscissa or a vector of them, one per
    set, and either end of a segment key may be such a vector.  Returns the
    signs and the logs of the values, one per set, as two lists.

    Positions given the same key object form one group; no key value is
    compared, so callers hand one key object to every position of one slice.
    Equal keys in distinct objects stay apart, which is still exact but
    costs more determinants.  Tied abscissae would be such keys: callers
    return their density, exactly 0, without the operator.

    In the dense n x n x n tensor, constant position k holds constant row
    k-m in rows k..n-1 of its slice, so a nonzero term takes row k there,
    and the plan covers only the m random positions.  The permutation sum
    (``pseudodet._table_sum``) gets a table of scaled rows per set: the
    first m rows of each group's slice, then the constant block C
    (``_const_rows``).  Each grouping's ``_Gather``, its row indices into
    that table, is kept in ``kernel.memo``.
    """
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(id(key), (key, []))[1].append(k)
    groups = list(groups.values())
    positions = tuple(tuple(ks) for _, ks in groups)
    gather = kernel.memo.get(("gather", positions))
    m, n = kernel.m, kernel.n
    if gather is None:
        where = np.empty(m, dtype=np.intp)
        for s, ks in enumerate(positions):
            where[list(ks)] = s
        gather = _Gather(GroupedPermutationPlan(m, positions), where, m, n - m)
        kernel.memo[("gather", positions)] = gather
    end = len(groups) * m
    rows, shifts = np.empty((count, end + n - m, n)), np.empty((count, end + n - m))
    for s, (_, (top, shift)) in enumerate(_slices(kernel, [key for key, _ in groups], count, stats)):
        rows[:, s * m : (s + 1) * m], shifts[:, s * m : (s + 1) * m] = top, shift
    rows[:, end:], shifts[:, end:] = _const_rows(kernel)
    return _table_sum(rows, shifts, gather, stats)


def _floats(scale_sign: int, log_scale: float, values: tuple) -> list:
    """The operator's values, as signs and logs, times a scale, as floats;
    an overflow reads as an infinity, as in ``SignedLog.to_float``."""
    out = []
    for sign, log in zip(*values):
        sign *= scale_sign
        try:
            out.append(sign * math.exp(log_scale + log) if sign else 0.0)
        except OverflowError:
            out.append(sign * _INF)
    return out


def _unordered_values(
    kernel: KernelForm, keys: Sequence, count: int, stats: Optional[EvalStats] = None
) -> list:
    """Exchangeable statistic at ``count`` abscissa sets: the operator over
    ``keys``, divided by M!."""
    log_scale = kernel.log_k.logmag - log_factorial(kernel.m)
    return _floats(kernel.log_k.sign, log_scale, _operator(kernel, keys, count, stats))


# ---------------------------------------------------------------------------
# joint and marginal densities
# ---------------------------------------------------------------------------


def _ordered_rows(kernel: KernelForm, xs: np.ndarray) -> list:
    """The indices of the rows of ``xs`` inside the ordered support: finite
    abscissae in the support, strictly decreasing along the row."""
    lo, hi = kernel.support
    return [
        r for r, row in enumerate(xs.tolist())
        if all(lo <= v <= hi and abs(v) < _INF for v in row) and all(a > b for a, b in zip(row, row[1:]))
    ]


def _ordered_densities(
    kernel: KernelForm, indices: Sequence[int], xs: np.ndarray, stats: Optional[EvalStats] = None
) -> np.ndarray:
    """Joint density of the ordered eigenvalues at the given ranks, at every
    row of ``xs`` (one column per rank), in batched operator calls.

    A fixed rank's key is its column of abscissae; the free ranks between two
    fixed ones share the segment between those columns, and the order
    constant ``1 / prod (i_s - i_(s-1) - 1)!`` counts their orderings.
    Rows outside the ordered support are 0, among them every row that is not
    strictly decreasing (at a tie the Vandermonde factor vanishes), as is
    every row with an infinite abscissa, where all the weights vanish.  They
    are dropped first, and the rest go to the operator in calls of at most
    _CHUNK / n rows, so that a call's slice stack holds no more entries than
    one chunk of the permutation sum's determinants.
    """
    lo, hi = kernel.support
    xs = np.asarray(xs, dtype=float)
    rows = _ordered_rows(kernel, xs)
    out = np.zeros(len(xs))
    log_scale = _log_order_constant(kernel.m, indices) + kernel.log_k.logmag
    bounds = (0, *indices, kernel.m + 1)
    step = max(1, _CHUNK // kernel.n)
    for start in range(0, len(rows), step):
        part = rows[start : start + step]
        cols = list(xs[part].T)
        ends = [hi, *cols, lo]
        keys = []
        for s, (first, stop) in enumerate(zip(bounds, bounds[1:])):
            keys += [(ends[s + 1], ends[s], IDENTITY_TILT)] * (stop - first - 1) + cols[s : s + 1]
        out[part] = _floats(kernel.log_k.sign, log_scale, _operator(kernel, keys, len(part), stats))
    return out


def joint_pdf_ordered(
    model: EnsembleModel,
    indices: Sequence[int],
    xs: Sequence[float],
    stats: Optional[EvalStats] = None,
) -> float:
    """Joint density of the ordered eigenvalues at the given ranks."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    xs = [float(v) for v in xs]
    return float(_ordered_densities(kernel, _check_fixed(kernel.m, indices, xs), [xs], stats)[0])


def pdf_single(
    model: EnsembleModel, ell: int, x: float, stats: Optional[EvalStats] = None
) -> float:
    """Marginal density of the ell-th largest eigenvalue."""
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
    return joint_pdf_ordered(model, (ell, s), (x_ell, x_s), stats)


def pdf_pair_grid(
    model: EnsembleModel, ell: int, s: int, grid1: Sequence[float], grid2: Sequence[float]
) -> np.ndarray:
    """``pdf_pair`` at every point of the product of two ascending grids, in
    one batched density call: entry [i, j] is the density at (grid1[i],
    grid2[j]), bit for bit the value ``pdf_pair`` gives alone, so the wedge
    x_s >= x_ell is exactly 0."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    g1, g2 = _check_grid(grid1), _check_grid(grid2)
    indices = _check_fixed(kernel.m, (ell, s), (g1, g2))
    xs = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
    return _ordered_densities(kernel, indices, xs).reshape(len(g1), len(g2))


def joint_pdf_unordered(
    model: EnsembleModel,
    count: int,
    xs: Sequence[float],
    stats: Optional[EvalStats] = None,
) -> float:
    """Exchangeable joint density of ``count`` unordered eigenvalues; 0 where
    two of them are equal."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    m = kernel.m
    if not (1 <= count <= m):
        raise ValueError(f"subset size {count} outside 1..{m}")
    xs = [_check_abscissa(v) for v in xs]
    if len(xs) != count:
        raise ValueError(f"expected {count} abscissae, got {len(xs)}")
    return float(_unordered_densities(kernel, np.array([xs]), stats)[0])


def _unordered_densities(kernel: KernelForm, xs: np.ndarray, stats: Optional[EvalStats] = None) -> np.ndarray:
    """``joint_pdf_unordered`` at every row of ``xs`` (one column per
    eigenvalue), in batched operator calls.  Each row is sorted in
    descending order first, so the density is symmetric bit for bit.  Each
    column is one vector point key, and the other eigenvalues share one
    full-support segment.  Rows with a point outside the support or
    infinite, or with two equal points, are 0 and dropped first; the rest
    go in calls sized as in ``_ordered_densities``."""
    lo, hi = kernel.support
    xs = np.sort(xs, axis=1)[:, ::-1]
    rows = _ordered_rows(kernel, xs)
    out = np.zeros(len(xs))
    segments = [(lo, hi, IDENTITY_TILT)] * (kernel.m - xs.shape[1])
    step = max(1, _CHUNK // kernel.n)
    for start in range(0, len(rows), step):
        part = rows[start : start + step]
        out[part] = _unordered_values(kernel, list(xs[part].T) + segments, len(part), stats)
    return out


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
    if method not in ("auto", "determinant", "tensor"):
        raise ValueError(f"unknown method {method!r}")
    if method == "determinant" and kernel.n != kernel.m:
        raise ValueError("determinant fast path requires a square kernel")
    if method == "auto":
        method = "determinant" if kernel.n == kernel.m else "tensor"
    a, b = _check_abscissa(a), _check_abscissa(b)
    if a >= b:
        raise ValueError(f"inverted interval [{a}, {b}]")
    lo = max(a, kernel.support[0])
    hi = min(b, kernel.support[1])
    if hi <= lo:
        return 0.0

    key = (lo, hi, IDENTITY_TILT)
    if method == "determinant":
        return (kernel.log_k * _det_from_arrays(*kernel.slice(key))).to_float()
    return _unordered_values(kernel, [key] * kernel.m, 1)[0]


# ---------------------------------------------------------------------------
# counting polynomial: ordered distribution functions in closed form
# ---------------------------------------------------------------------------


# share of a circle's peak below which a coefficient reading is rounding noise
_NOISE_SHARE = 1e-13


def _pencil_circles(
    below: tuple, above: tuple, const: tuple, log_radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of ``det[B + t*A; C]`` from its values on circles.

    ``below`` and ``above`` are stacks of the m x n signed-log blocks B and A,
    one pair per circle, ``const`` the constant rows C.  For each circle's
    log radius, the determinant is taken at the m+1 points ``t = r * w^k``
    (w the (m+1)-th root of unity) in one batched call, and one FFT turns the
    values into ``coef[j] = c_j r^j / scale`` exactly, because the degree is
    m.  The values are scaled so that the largest one on each circle has
    modulus 1, so ``|coef[j]|`` is also the share of the circle's peak that
    term j carries; ``log scale`` is returned with the coefficients.
    """
    (bs, bl), (as_, al), (cs, cl) = below, above, const
    m = bs.shape[1]
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


def _distinct_radii(log_radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct log radii of every row, flattened row by row, with the
    row each belongs to and, per entry, the index of its radius."""
    order = np.argsort(log_radii, axis=1, kind="stable")
    ordered = np.take_along_axis(log_radii, order, axis=1)
    new = np.ones(ordered.shape, dtype=bool)
    new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    which = np.empty(order.shape, dtype=np.intp)
    np.put_along_axis(which, order, np.cumsum(new).reshape(new.shape) - 1, axis=1)
    return ordered[new], np.nonzero(new)[0], which


def _count_distribution(kernel: KernelForm, x) -> np.ndarray:
    """``P(#{eigenvalues > x} = j)`` for j = 0..m, x inside the support; one
    row per abscissa for a vector of them.

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

    All abscissae run their passes in lockstep, the circles of a pass in one
    batched call, and each stops on its own test, so every row is the one
    its abscissa gives alone.  A batch holds at most as many abscissae as
    keep a pass within _CHUNK determinants.
    """
    xs = np.asarray(x, dtype=float)
    lo, hi = kernel.support
    m, n = kernel.m, kernel.n
    count = xs.size
    flat = xs.reshape(-1)
    step = max(1, _CHUNK // (m * m))
    if count > step:
        return np.concatenate(
            [_count_distribution(kernel, flat[i : i + step]) for i in range(0, count, step)]
        )
    const = kernel.const_rows
    below, above = (
        (s[:, :m], l[:, :m])
        for (s, l), _ in _slices(kernel, [(lo, flat, IDENTITY_TILT), (flat, hi, IDENTITY_TILT)], count)
    )
    ends = [
        np.stack([np.concatenate([block[k], np.broadcast_to(const[k], (count,) + const[k].shape)], axis=1)
                  for block in (below, above)], axis=1).reshape(2 * count, n, n)
        for k in (0, 1)
    ]
    end_signs, end_logs = _batch_det(*ends)

    signs, logs, share = np.zeros((count, m + 1)), np.full((count, m + 1), -_INF), np.zeros((count, m + 1))
    signs[:, [0, m]], logs[:, [0, m]] = end_signs.reshape(count, 2), end_logs.reshape(count, 2)
    share[:, [0, m]] = 1.0
    inner = np.arange(1, m)
    log_radii = np.zeros((count, m - 1))
    live = np.ones(count, dtype=bool)
    for _ in range(m + 2):
        live &= share.min(axis=1) < 0.5 / (m + 1)
        rows = np.flatnonzero(live)
        if not len(rows):
            break
        radii, owner, which = _distinct_radii(log_radii[rows])
        circles = rows[owner]
        coef, scale = _pencil_circles(
            (below[0][circles], below[1][circles]), (above[0][circles], above[1][circles]), const, radii
        )
        reading = coef[which, inner]
        # below the rounding floor of a circle a reading is no reading
        better = np.abs(reading) > np.maximum(share[rows, 1:m], _NOISE_SHARE)
        with np.errstate(divide="ignore"):
            log_c = np.log(np.abs(reading)) + scale[which] - inner * log_radii[rows]
        logs[rows, 1:m] = np.where(better, log_c, logs[rows, 1:m])
        signs[rows, 1:m] = np.where(better, np.sign(reading), signs[rows, 1:m])
        share[rows, 1:m] = np.maximum(share[rows, 1:m], np.abs(reading))
        trusted = (share[rows] >= 1e-6) & np.isfinite(logs[rows])
        # every term trusted: the interpolation returns the readings themselves
        guess = logs[rows]
        for r in np.flatnonzero(~trusted.all(axis=1)):
            points = np.flatnonzero(trusted[r])
            if len(points):
                guess[r] = np.interp(np.arange(m + 1), points, guess[r, points])
            else:  # nothing to place the next circles by: this abscissa stops
                live[rows[r]] = False
                guess[r] = 0.0
        log_radii[rows] = (guess[:, :-2] - guess[:, 2:]) / 2.0
    with np.errstate(under="ignore"):
        counts = kernel.log_k.sign * signs * np.exp(logs + kernel.log_k.logmag)
    return counts.reshape(xs.shape + (m + 1,))


def _rank_cdfs(kernel: KernelForm, xs: np.ndarray) -> np.ndarray:
    """``P(lambda_ell <= x)`` for every rank ell = 1..m, one row per abscissa.

    ``F_ell = P(count < ell)``.  Whichever of that sum and its complement
    ``P(count >= ell)`` is smaller is summed from the count distribution, so
    both tails keep the relative accuracy of the coefficients, a resolved
    value lies in [0, 1] with no clipping, and the two sums meet in the
    bulk, where a rounding step is far below the growth of F between grid
    points.  All abscissae inside the support share one count-distribution
    call.
    """
    lo, hi = kernel.support
    xs = np.asarray(xs, dtype=float)
    out = np.repeat((xs >= hi).astype(float)[:, None], kernel.m, axis=1)
    inside = (xs > lo) & (xs < hi)
    if inside.any():
        counts = _count_distribution(kernel, xs[inside])
        below = np.cumsum(counts, axis=1)[:, :-1]
        above = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1][:, 1:]
        out[inside] = np.where(below <= above, below, 1.0 - above)
    return out


def _resolved_cdfs(kernel: KernelForm, ell: int, xs: np.ndarray) -> np.ndarray:
    """``P(lambda_ell <= x)`` at every abscissa, raising where a tail the
    kernel slices cannot resolve reads outside [0, 1]."""
    values = _rank_cdfs(kernel, xs)[:, ell - 1]
    for x, value in zip(np.asarray(xs).tolist(), values.tolist()):
        if not 0.0 <= value <= 1.0:
            raise NumericError(
                f"P(lambda_{ell} <= {x}) reads {value}: the tail is below the "
                f"resolution of the kernel slices"
            )
    return values


def cdf_single(model: EnsembleModel, ell: int, x: float) -> float:
    """Distribution function of the ell-th largest eigenvalue."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    _check_rank(kernel, ell)
    return float(_resolved_cdfs(kernel, ell, np.array([_check_abscissa(x)]))[0])


def cdf_curve(model: EnsembleModel, ell: int, grid: Sequence[float]) -> np.ndarray:
    """Distribution function on an ascending grid, every point from one
    batched count-distribution call."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    _check_rank(kernel, ell)
    return _resolved_cdfs(kernel, ell, _check_grid(grid))


# ---------------------------------------------------------------------------
# quadrature over one marginal
# ---------------------------------------------------------------------------

# distribution levels of the quadrature cuts: the outer two mark the bulk
# edges, the inner five become split points
_CUT_LEVELS = (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6)
_CUT_GRID = 20
# steps of the bulk-edge ladder evaluated per count-distribution call
_LADDER_BATCH = 10
_LADDER_STEPS = 64


def _bulk_bracket(kernel: KernelForm) -> tuple:
    """An interval holding every rank's bulk: P(lambda_m <= a) and
    P(lambda_1 > b) are both at most the outer cut level.  Steps out from
    the middle of the support, doubling the distance to an infinite edge and
    quartering the distance to a finite one, and takes each side's first
    passing step; the steps of both sides are evaluated _LADDER_BATCH at a
    time in one count-distribution call."""
    lo, hi = kernel.support
    tail = _CUT_LEVELS[0]
    if math.isfinite(hi):
        start = (lo + hi) / 2.0
    else:
        start = lo + 1.0 if math.isfinite(lo) else 0.0
    ladders = []
    for edge, sign in ((lo, -1.0), (hi, 1.0)):
        x, width, steps = start, 1.0, []
        for _ in range(_LADDER_STEPS):
            if math.isfinite(edge):
                x = edge + (x - edge) / 4.0
            else:
                x, width = x + sign * width, 2.0 * width
            steps.append(x)
        ladders.append(steps)
    edges = [None, None]
    for first in range(0, _LADDER_STEPS, _LADDER_BATCH):
        sides = [side for side in (0, 1) if edges[side] is None]
        if not sides:
            return tuple(edges)
        xs = np.array([x for side in sides for x in ladders[side][first : first + _LADDER_BATCH]])
        for side, f in zip(sides, _rank_cdfs(kernel, xs).reshape(len(sides), -1, kernel.m)):
            passed = f[:, -1] <= tail if side == 0 else f[:, 0] >= 1.0 - tail
            if passed.any():
                edges[side] = ladders[side][first + int(np.argmax(passed))]
    if None not in edges:
        return tuple(edges)
    raise NumericError(f"no bulk edge found toward {(lo, hi)[edges.index(None)]}")


def _marginal_cuts(kernel: KernelForm, ell: int) -> tuple:
    """Quadrature split points of one marginal at fixed levels of its
    closed-form distribution function.  The outer two are pushed out by 0.2
    (below) and 0.7 (above) of the span between them, so that the unbounded
    end segment holds a negligible share of a moment's integrand; an end
    segment that starts inside the upper tail costs the adaptive rule more
    subdivisions.  All ranks are placed from one grid of count
    distributions, one batched call, kept on the kernel."""
    cuts = kernel.memo.get("marginal_cuts")
    if cuts is None:
        a, b = _bulk_bracket(kernel)
        grid = np.linspace(a, b, _CUT_GRID)
        table = _rank_cdfs(kernel, grid)
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


_EPSABS, _EPSREL = 1e-9, 1e-8
_MAX_PANELS = 300


def expect_single(model: EnsembleModel, ell: int, fn: Callable[[float], float]) -> float:
    """Expectation of ``fn`` under the marginal of the ell-th eigenvalue: the
    integral of ``fn(x) * pdf_single(ell, x)`` over the support by the
    round-based adaptive Gauss-Kronrod rule of ``quadrature.integrate``.

    The panels start as the pieces between the cuts of the closed-form
    distribution function (``_marginal_cuts``); an infinite end piece is
    mapped onto [0, 1) at the scale of the width of the finite piece next
    to it.  Each round takes the 21 nodes of every new panel to one batched
    density call (the N = 1 case of which is ``pdf_single``, whose value at
    a point it is bit for bit, whatever the batch), until the error
    estimates add up to at most ``max(1e-9, 1e-8 |total|)``; past 300
    panels it raises ``NumericError``.

    The density is the tensor engine's, so the total mass stays an
    independent check of the normalizer that the closed-form distribution
    functions share.  The densities at the nodes are kept on the kernel, and
    since the nodes depend on ``fn`` only through the halvings,
    expectations of one marginal (the moments of a ``moments`` request)
    share most of them.  ``fn`` is not asked where the density is 0."""
    kernel = kernel_form(model)
    _check_capability(kernel)
    _check_rank(kernel, ell)
    lo, hi = kernel.support
    densities = kernel.memo.setdefault(("densities", ell), {})
    cuts = [lo] + [e for e in _marginal_cuts(kernel, ell) if lo < e < hi] + [hi]
    widths = [b - a for a, b in zip(cuts, cuts[1:]) if math.isfinite(b - a)] or [1.0]
    pieces = [(a, b, widths[0] if a == -_INF else widths[-1]) for a, b in zip(cuts, cuts[1:])]

    def integrand(xs: np.ndarray) -> np.ndarray:
        nodes = xs.tolist()
        missing = [v for v in dict.fromkeys(nodes) if v not in densities]
        if missing:
            values = _ordered_densities(kernel, (ell,), np.array(missing)[:, None])
            densities.update(zip(missing, values.tolist()))
        # far out the density underflows to 0 before a growing fn overflows
        return np.array([fn(v) * densities[v] if densities[v] else 0.0 for v in nodes])

    return float(integrate(integrand, pieces, _EPSABS, _EPSREL, _MAX_PANELS))


def moment_single(model: EnsembleModel, ell: int, order: int) -> float:
    """Moment ``E[lambda_ell^order]`` of the ell-th largest eigenvalue, an
    ``expect_single`` of ``x**order``; order 0 is the marginal's mass."""
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    return expect_single(model, ell, lambda x: x**order)


def mgf_single(model: EnsembleModel, ell: int, nu: float) -> float:
    """Moment generating function ``E[exp(nu * lambda_ell)]`` of the ell-th
    largest eigenvalue; raises ``ValueError`` where it diverges, at ``nu`` at
    or above the decay rate of the weight."""
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
    # one key object per distinct factor, so that equal factors form one group
    keys: dict = {}
    return _unordered_values(kernel, [keys.setdefault(tilt, (lo, hi, tilt)) for tilt in tilts], 1)[0]


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
        kernel = kernel_form(model)
        _check_capability(kernel)
        _check_rank(kernel, index)
        values = _ordered_densities(kernel, (index,), grid[:, None])
        meta["indices"] = str(index)
    elif statistic == "cdf":
        if index is None:
            raise ValueError("statistic 'cdf' needs an eigenvalue index")
        values = cdf_curve(model, index, grid)
        meta["indices"] = str(index)
    elif statistic == "unordered-pdf":
        kernel = kernel_form(model)
        _check_capability(kernel)
        values = _unordered_densities(kernel, grid[:, None])
        meta["indices"] = "unordered"
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    return CurveGrid(tuple(grid), tuple(values), meta)
