"""Rank-3 tensor pseudo-determinant with permutation grouping.

The operator reduces to a signed sum of conventional determinants: one
determinant per permutation of the slice indices, where row ``k`` of the
permuted matrix is taken from slice ``k`` at first-index ``mu_k``.  When the
tensor is constant in ``k`` across a set of positions, permuting the
assigned first-indices inside that set changes the determinant's row order
and the permutation sign by the same transposition parity, so one
representative per assignment class suffices with a factorial multiplicity
weight.  All determinants run in sign-tracked log scale with per-row
rescaling.

The sum needs only the distinct slices, and of those only scaled rows.
Its kernel (``_table_sum``) takes a table of rows, each divided by its
largest magnitude and carrying that log shift, and a ``_Gather``: the plan
as flat row indices into the table, one array per chunk, with its log
multiplicity.  Each representative's determinant gathers the rows its
positions pick, so a group of equal positions hands over one slice, not one
per position, and a caller that evaluates one grouping many times keeps
its ``_Gather`` and its scaled rows.  Constant rows C, which every nonzero
term of a kernel with constant columns takes at their own positions, are
the table's last rows: each determinant is the gathered rows stacked on C,
so they add no permutations and no determinants.  A gather is checked
against the map from positions to slices, which is exact: a group must
name one slice.  The public entries take a dense ``Tensor3``, scale its
slices once per call, one per group (``pseudo_det_grouped``) or one per
position (``pseudo_det``), and pass them on with an empty constant block.
``pseudo_det`` lists its permutations with ``itertools.permutations``, not
through the grouped enumeration, so the two entries check each other.

The rows may carry a leading batch axis, one operator per abscissa set of
a statistic: every representative's determinant for all of them runs in
one stacked ``slogdet``, and each operator keeps its own sum, so its value
is the one it has when evaluated alone.  Each chunk of representatives sums
each operator's terms exactly (``math.fsum``), and the chunks of a larger
plan merge in a fixed order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPlanError, NumericError
from .signedlog import SignedLog

__all__ = [
    "Tensor3",
    "GroupedPermutationPlan",
    "EvalStats",
    "det_signed_log",
    "pseudo_det",
    "pseudo_det_grouped",
]

_INF = math.inf
# permutations per determinant batch; bounds the (B, N, N) work arrays
_CHUNK = 4096


class Tensor3:
    """Dense rank-3 tensor of signed-log values, indexed 1-based, or a stack
    of them along a leading batch axis."""

    __slots__ = ("n", "signs", "logs")

    def __init__(self, signs: np.ndarray, logs: np.ndarray):
        signs = np.asarray(signs, dtype=np.float64)
        logs = np.asarray(logs, dtype=np.float64)
        if signs.ndim not in (3, 4) or signs.shape != logs.shape:
            raise ValueError("signs and logs must be equal-shape rank-3 arrays or stacks of them")
        n = signs.shape[-1]
        if n < 1 or signs.shape[-3:] != (n, n, n):
            raise ValueError(f"tensor must be cubic with dimension >= 1, got {signs.shape}")
        found = _violation(signs, logs)
        if found is not None:
            what, at = found
            i, j, k = (int(v) + 1 for v in at[-3:])
            raise NumericError(f"{what} at ({i}, {j}, {k})")
        self.n = n
        self.signs = signs
        self.logs = logs

    def element(self, i: int, j: int, k: int) -> SignedLog:
        if not (1 <= i <= self.n and 1 <= j <= self.n and 1 <= k <= self.n):
            raise IndexError(f"indices ({i}, {j}, {k}) outside 1..{self.n}")
        s = self.signs[i - 1, j - 1, k - 1]
        return SignedLog.from_log(self.logs[i - 1, j - 1, k - 1], int(s) if s else 0)


class EvalStats:
    """Telemetry summed over every evaluation it is passed to: the
    determinants the permutation sums take (constant rows add none), and the
    kernel slices filled for the operators or reused from each kernel's
    previous call."""

    __slots__ = ("determinants", "slices_filled", "slices_reused")

    def __init__(self) -> None:
        self.determinants = 0
        self.slices_filled = 0
        self.slices_reused = 0


def _violation(signs: np.ndarray, logs: np.ndarray):
    """What is wrong with a signed-log array, and the index of the first
    entry where it is: a NaN or +inf entry, or a sign of 0 with a finite log
    or the reverse.  None for a valid array."""
    bad = ~(logs < np.inf) | np.isnan(signs)
    if bad.any():
        return "non-finite element", np.argwhere(bad)[0]
    mismatch = (signs == 0) != (logs == -np.inf)
    if mismatch.any():
        return "sign/log convention violated", np.argwhere(mismatch)[0]
    return None


def _scale_rows(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row of a (..., N) signed-log stack divided by its largest
    magnitude: the scaled rows, their log shifts, and which rows are
    finite.  A row of zeros scales to zeros with shift 0."""
    rowmax = logs.max(axis=-1)
    finite = np.isfinite(rowmax)
    shift = np.where(finite, rowmax, 0.0)
    with np.errstate(under="ignore"):
        scaled = signs * np.exp(logs - shift[..., None])
    return scaled, shift, finite


def _batch_det(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of a (..., N, N) stack of signed-log matrices: the
    ``slogdet`` of the scaled rows (``_scale_rows``) plus their shifts, 0
    where a row is zero."""
    scaled, shift, finite = _scale_rows(signs, logs)
    sgn, logdet = np.linalg.slogdet(scaled)
    total = np.where(finite.all(axis=-1), logdet + shift.sum(axis=-1), -np.inf)
    sgn = np.where(np.isfinite(total), sgn, 0.0)
    return sgn, np.where(sgn == 0.0, -np.inf, total)


def _det_from_arrays(signs: np.ndarray, logs: np.ndarray) -> SignedLog:
    if np.isnan(logs).any():
        raise NumericError("non-finite matrix entry")
    sgn, log = _batch_det(signs[None, :, :], logs[None, :, :])
    return SignedLog.from_log(float(log[0]), int(sgn[0]))


def det_signed_log(matrix) -> SignedLog:
    """Determinant of a square matrix of SignedLog entries.

    Singular input yields the zero value; the sign is tracked through
    pivoted elimination of the row-rescaled matrix, and the magnitude stays
    in the log domain so entries like exp(1000) are handled exactly.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n < 1:
        raise ValueError("matrix must have dimension >= 1")
    signs = np.zeros((n, n))
    logs = np.full((n, n), -np.inf)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, v in enumerate(row):
            signs[i, j] = v.sign
            logs[i, j] = v.logmag
    return _det_from_arrays(signs, logs)


@dataclass(frozen=True)
class GroupedPermutationPlan:
    """Partition of the slice positions into interchangeable groups.

    ``groups`` holds 0-based position tuples covering 0..n-1 exactly once;
    positions inside one group must index tensor slices that are equal.
    Each enumerated representative stands for ``multiplicity`` raw
    permutations of equal signed contribution.
    """

    n: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = sorted(p for g in self.groups for p in g)
        if seen != list(range(self.n)):
            raise InvalidPlanError("groups must partition the slice positions exactly")

    @classmethod
    def singletons(cls, n: int) -> "GroupedPermutationPlan":
        return cls(n, tuple((k,) for k in range(n)))

    @classmethod
    def from_segment_sizes(cls, n: int, sizes) -> "GroupedPermutationPlan":
        """Contiguous leading groups of the given sizes; the rest singletons."""
        groups = []
        pos = 0
        for size in sizes:
            if size < 1:
                raise InvalidPlanError(f"group sizes must be positive, got {size}")
            groups.append(tuple(range(pos, pos + size)))
            pos += size
        if pos > n:
            raise InvalidPlanError(f"group sizes sum to {pos} > dimension {n}")
        groups.extend((k,) for k in range(pos, n))
        return cls(n, tuple(groups))

    @property
    def multiplicity(self) -> int:
        out = 1
        for g in self.groups:
            out *= math.factorial(len(g))
        return out

    @property
    def representative_count(self) -> int:
        return math.factorial(self.n) // self.multiplicity

    @functools.cached_property
    def _first(self) -> np.ndarray:
        """The first position of each position's group."""
        first = np.empty(self.n, dtype=np.intp)
        for g in self.groups:
            first[list(g)] = g[0]
        return first

    def check_against(self, tensor: Tensor3, rtol: float = 1e-12) -> None:
        """Check that every entry of each group's slices equals the group's
        first slice: signs exactly, log magnitudes to ``rtol``."""
        if tensor.n != self.n:
            raise InvalidPlanError(
                f"plan dimension {self.n} does not match tensor dimension {tensor.n}"
            )
        ref_s = tensor.signs[..., self._first]
        ref_l = tensor.logs[..., self._first]
        # equal signs imply both logs finite or both -inf (Tensor3 convention)
        with np.errstate(invalid="ignore"):
            drift = np.abs(tensor.logs - ref_l) > rtol * np.maximum(1.0, np.abs(ref_l))
        for bad, what in (
            (tensor.signs != ref_s, "changes sign"),
            (np.isfinite(ref_l) & drift, "varies"),
        ):
            if bad.any():
                i, j, k = (int(v) for v in np.argwhere(bad)[0][-3:])
                group = next(g for g in self.groups if k in g)
                raise InvalidPlanError(
                    f"slice value {what} inside group {group} at ({i + 1}, {j + 1})"
                )


def _representatives(groups: tuple[tuple[int, ...], ...], n: int):
    """Yield one permutation per class: values ascend within each group."""
    mu = np.empty(n, dtype=np.intp)

    def rec(gi: int, remaining: tuple[int, ...]):
        if gi == len(groups):
            yield mu.copy()
            return
        pos = groups[gi]
        for combo in itertools.combinations(remaining, len(pos)):
            for p, v in zip(pos, combo):
                mu[p] = v
            taken = set(combo)
            rest = tuple(v for v in remaining if v not in taken)
            yield from rec(gi + 1, rest)

    yield from rec(0, tuple(range(n)))


def _perm_signs(mu_batch: np.ndarray) -> np.ndarray:
    """Parity signs of a (B, N) permutation batch via inversion counts."""
    gt = mu_batch[:, :, None] > mu_batch[:, None, :]
    upper = np.triu(np.ones(mu_batch.shape[1], dtype=bool), k=1)
    inversions = (gt & upper).sum(axis=(1, 2))
    return np.where(inversions % 2 == 0, 1.0, -1.0)


def _chunks(mu_iter):
    """Permutation chunks of at most _CHUNK rows, each with its parity signs."""
    while True:
        block = list(itertools.islice(mu_iter, _CHUNK))
        if not block:
            return
        batch = np.asarray(block, dtype=np.intp)
        yield batch, _perm_signs(batch)


class _Gather:
    """A grouping plan laid over a table of scaled rows, with the constants
    every evaluation of it reuses: its log multiplicity, and its
    representatives as flat row indices, one (B, N) array per chunk with its
    parity signs.

    The table holds ``width`` rows per slice, slice s from row s*width, and
    ``where`` maps each position to its slice, so position k of a
    representative mu takes row ``where[k]*width + mu_k``.  The last
    ``tail`` rows of the table, a constant block, follow in order as the last
    rows of every determinant.  Each group of the plan must name one slice,
    which makes the grouping exact.  ``representatives`` lists the
    representatives afresh on each call, by default ``_representatives`` of
    the plan.  A plan of one chunk keeps its index arrays, for a caller that
    evaluates one grouping at many abscissae; a larger one lists them chunk
    by chunk on each call."""

    __slots__ = ("plan", "reps", "log_weight", "_where", "_tail", "_representatives", "_kept")

    def __init__(
        self, plan: GroupedPermutationPlan, where: np.ndarray, width: int, tail: int, representatives=None
    ):
        if len(where) != plan.n:
            raise InvalidPlanError(f"plan dimension {plan.n} does not match {len(where)} slice positions")
        for group in plan.groups:
            if len({int(where[k]) for k in group}) != 1:
                raise InvalidPlanError(f"group {group} spans several slices")
        self.plan = plan
        self.reps = plan.representative_count
        self.log_weight = math.log(float(plan.multiplicity))
        self._where = np.asarray(where, dtype=np.intp) * width
        self._tail = np.arange(-tail, 0)
        self._representatives = representatives or functools.partial(_representatives, plan.groups, plan.n)
        self._kept = tuple(self._index()) if self.reps <= _CHUNK else None

    def chunks(self):
        return self._index() if self._kept is None else self._kept

    def _index(self):
        n = self.plan.n
        for mu, parity in _chunks(self._representatives()):
            index = np.empty((len(mu), n + len(self._tail)), dtype=np.intp)
            index[:, :n] = self._where + mu
            index[:, n:] = self._tail
            yield index, parity


def _table_sum(rows: np.ndarray, shifts: np.ndarray, gather: _Gather, stats: EvalStats | None = None) -> tuple:
    """The grouped permutation sums of ``count`` operators over a table of
    scaled rows (``_scale_rows``), ``rows`` (count, R, N) with their log
    shifts (count, R).  A representative's term is the determinant of the
    rows its index picks, whose log adds their shifts summed in position
    order.  Returns the operators' signs and logs, as two lists, with the
    plan's multiplicity in the logs.

    Each chunk sums each operator's terms exactly, scaled by the largest
    (``math.fsum``).  Each later chunk's sum merges into the operator's
    running sum at the larger of the two scales, in one correctly rounded
    addition; a chunk whose sum is 0 sets no scale."""
    peaks = totals = None
    for index, parity in gather.chunks():
        signs, logs = _chunk_dets(rows, shifts, index, parity, stats)
        peak = logs.max(axis=1)
        peak[peak == -_INF] = 0.0  # every term zero: any finite scale
        sums = [math.fsum(terms) for terms in (signs * np.exp(logs - peak[:, None])).tolist()]
        if totals is None:
            peaks, totals = peak.tolist(), sums
            continue
        for o, (top, total) in enumerate(zip(peak.tolist(), sums)):
            if not totals[o]:
                peaks[o], totals[o] = top, total
            elif total:
                big = max(peaks[o], top)
                totals[o] = totals[o] * math.exp(peaks[o] - big) + total * math.exp(top - big)
                peaks[o] = big
    return [(total > 0.0) - (total < 0.0) for total in totals], [
        top + math.log(abs(total)) + gather.log_weight if total else -_INF
        for top, total in zip(peaks, totals)
    ]


def _chunk_dets(rows, shifts, index, parity, stats) -> tuple[np.ndarray, np.ndarray]:
    """The signed terms (count, B) of one chunk of representatives, over as
    many operators at once as keep a stacked ``slogdet`` within _CHUNK
    determinants.  A zero row, whose shift is 0, makes its determinant an
    exact zero."""
    count, reps = len(rows), len(index)
    if stats is not None:
        stats.determinants += count * reps
    step = max(1, _CHUNK // reps)
    parts = []
    for start in range(0, count, step):
        signs, logs = np.linalg.slogdet(rows[start : start + step].take(index, axis=1))
        logs += shifts[start : start + step].take(index, axis=1).sum(axis=-1)
        parts.append((signs * parity, logs))
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _tensor_sum(tensor: Tensor3, positions, where, plan: GroupedPermutationPlan, stats, representatives=None):
    """The grouped permutation sum over the slices of a tensor (or stack) at
    the given positions, position k taking slice ``where[k]``, with no
    constant block; every slice row is scaled once per call.  One value for
    a tensor, the signs and logs for a stack."""
    n = tensor.n
    gather = _Gather(plan, where, n, 0, representatives)
    slices = (
        np.ascontiguousarray(np.moveaxis(a.reshape(-1, n, n, n)[..., positions], -1, 1))
        for a in (tensor.signs, tensor.logs)
    )
    scaled, shift, _ = _scale_rows(*slices)
    count = len(shift)
    signs, logs = _table_sum(scaled.reshape(count, -1, n), shift.reshape(count, -1), gather, stats)
    return (signs, logs) if tensor.signs.ndim == 4 else SignedLog.from_log(logs[0], signs[0])


def pseudo_det(tensor: Tensor3, stats: EvalStats | None = None):
    """Full permutation-sum evaluation: one determinant per slice permutation,
    listed by ``itertools.permutations``, apart from the grouped route's
    enumeration.  A stack of tensors gives the signs and logs of its values,
    as two lists."""
    n = tensor.n
    positions = np.arange(n)
    plan = GroupedPermutationPlan.singletons(n)
    return _tensor_sum(tensor, positions, positions, plan, stats, lambda: itertools.permutations(range(n)))


def pseudo_det_grouped(tensor: Tensor3, plan: GroupedPermutationPlan, stats: EvalStats | None = None):
    """Grouped evaluation over class representatives with multiplicity weight.
    A stack of tensors gives the signs and logs of its values, as two lists."""
    plan.check_against(tensor)
    where = np.empty(plan.n, dtype=np.intp)
    for s, group in enumerate(plan.groups):
        where[list(group)] = s
    return _tensor_sum(tensor, [group[0] for group in plan.groups], where, plan, stats)
