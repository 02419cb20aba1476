"""Rank-3 tensor pseudo-determinant with permutation grouping.

The operator reduces to a signed sum of conventional determinants: one
determinant per permutation of the slice indices, where row ``k`` of the
permuted matrix is taken from slice ``k`` at first-index ``mu_k``.  When the
tensor is constant in ``k`` across a set of positions, permuting the
assigned first-indices inside that set changes the determinant's row order
and the permutation sign by the same transposition parity, so one
representative per assignment class suffices with a factorial multiplicity
weight.  All determinants run in sign-tracked log scale with per-row
rescaling, and the outer sum is merged chunk-by-chunk in a fixed order.

The sum needs only the distinct slices: the kernel (``_grouped_sum``) takes
them as a stack with a map from each position to its slice, so a group of
equal positions hands over one n x n slice, not one per position.  Every
slice row is scaled by its largest magnitude once per call, and each
representative gathers the scaled rows its positions pick.  A plan is
checked against the map, which is exact: a group must name one slice.  The
public entries take a dense ``Tensor3`` and pass its slices on, one per
group (``pseudo_det_grouped``) or one per position (``pseudo_det``).

The slices may carry a leading batch axis, one operator per abscissa set of
a statistic: every representative's determinant for all of them runs in one
stacked ``slogdet``, and each operator keeps its own chunked sum, so its
value is the one it has when evaluated alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPlanError, NumericError
from .signedlog import SignedLog, SignedLogSum

__all__ = [
    "Tensor3",
    "GroupedPermutationPlan",
    "EvalStats",
    "det_signed_log",
    "pseudo_det",
    "pseudo_det_grouped",
]

# permutations per determinant batch; bounds the (B, N, N) work arrays
_CHUNK = 4096
# plans with at most this many representatives keep their enumeration
_CACHED_REPS = 1024


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
    """Telemetry for one operator evaluation: the determinants of the
    permutation sum, and the kernel slices filled for it or reused from the
    kernel's previous call."""

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


def _scaled_det(scaled: np.ndarray, shift: np.ndarray, finite: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of a (..., N, N) stack of scaled rows (``_scale_rows``):
    the ``slogdet`` of the rows plus their shifts, 0 where a row is zero."""
    sgn, logdet = np.linalg.slogdet(scaled)
    total = logdet + shift.sum(axis=-1)
    total = np.where(finite.all(axis=-1), total, -np.inf)
    sgn = np.where(np.isfinite(total), sgn, 0.0)
    return sgn, np.where(sgn == 0.0, -np.inf, total)


def _batch_det(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of a (..., N, N) stack of signed-log matrices."""
    return _scaled_det(*_scale_rows(signs, logs))


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

    def chunks(self):
        """Class representatives in chunks of at most _CHUNK, each with its
        parity signs.  A plan of at most _CACHED_REPS representatives
        enumerates them once and keeps them, for a caller that evaluates one
        grouping at many abscissae."""
        if self.representative_count > _CACHED_REPS:
            return _chunks(_representatives(self.groups, self.n))
        return self._kept_chunks

    @functools.cached_property
    def _first(self) -> np.ndarray:
        """The first position of each position's group."""
        first = np.empty(self.n, dtype=np.intp)
        for g in self.groups:
            first[list(g)] = g[0]
        return first

    @functools.cached_property
    def _kept_chunks(self) -> tuple:
        return tuple(_chunks(_representatives(self.groups, self.n)))

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


def _permutation_sum(signs: np.ndarray, logs: np.ndarray, where: np.ndarray, chunks, stats: EvalStats | None) -> list:
    """One signed sum per operator of a (count, S, n, n) slice stack, over
    the permutations of ``chunks``; row k of a permutation's matrix is row
    mu_k of slice ``where[k]``.  The rows are scaled once, and each chunk of
    permutations runs over as many operators at once as keep a stacked
    ``slogdet`` within _CHUNK determinants.  Every operator merges its terms
    chunk by chunk in the same order as alone."""
    scaled, shift, finite = _scale_rows(signs, logs)
    accs = [SignedLogSum() for _ in range(len(scaled))]
    for batch, parity in chunks:
        step = max(1, _CHUNK // len(batch))
        for start in range(0, len(accs), step):
            part = slice(start, start + step)
            det_sgn, det_log = _scaled_det(
                scaled[part, where, batch], shift[part, where, batch], finite[part, where, batch]
            )
            det_sgn = det_sgn * parity
            if stats is not None:
                stats.determinants += det_sgn.size
            for acc, s, l in zip(accs[part], det_sgn, det_log):
                acc.add_terms(s, l)
    return [acc.total() for acc in accs]


def _grouped_sum(
    signs: np.ndarray,
    logs: np.ndarray,
    where: np.ndarray,
    plan: GroupedPermutationPlan,
    stats: EvalStats | None = None,
) -> list:
    """Grouped evaluation of a stack of operators given by their distinct
    slices: ``signs`` and ``logs`` hold S slices for each of ``count``
    operators, (count, S, n, n), and position k takes slice ``where[k]``.
    Returns one value per operator.

    Every slice entry is checked as ``Tensor3`` checks its entries, and each
    group of the plan must name one slice, which makes the grouping exact."""
    found = _violation(signs, logs)
    if found is not None:
        what, (_, s, i, j) = found
        raise NumericError(f"{what} in slice {s + 1} at ({i + 1}, {j + 1})")
    if len(where) != plan.n:
        raise InvalidPlanError(f"plan dimension {plan.n} does not match {len(where)} slice positions")
    for group in plan.groups:
        if len({int(where[k]) for k in group}) != 1:
            raise InvalidPlanError(f"group {group} spans several slices")
    weight = SignedLog.of(float(plan.multiplicity))
    return [total * weight for total in _permutation_sum(signs, logs, where, plan.chunks(), stats)]


def _position_slices(tensor: Tensor3, positions) -> tuple[np.ndarray, np.ndarray]:
    """The slices of a tensor (or stack) at the given positions as a
    (count, S, n, n) stack."""
    n = tensor.n
    return tuple(
        np.ascontiguousarray(np.moveaxis(a.reshape(-1, n, n, n)[..., positions], -1, 1))
        for a in (tensor.signs, tensor.logs)
    )


def pseudo_det(tensor: Tensor3, stats: EvalStats | None = None):
    """Full permutation-sum evaluation: one determinant per slice permutation.
    A stack of tensors gives a list of values."""
    positions = np.arange(tensor.n)
    mu_iter = (np.asarray(p, dtype=np.intp) for p in itertools.permutations(range(tensor.n)))
    totals = _permutation_sum(*_position_slices(tensor, positions), positions, _chunks(mu_iter), stats)
    return totals if tensor.signs.ndim == 4 else totals[0]


def pseudo_det_grouped(tensor: Tensor3, plan: GroupedPermutationPlan, stats: EvalStats | None = None):
    """Grouped evaluation over class representatives with multiplicity weight.
    A stack of tensors gives a list of values, one per tensor."""
    plan.check_against(tensor)
    where = np.empty(plan.n, dtype=np.intp)
    for s, group in enumerate(plan.groups):
        where[list(group)] = s
    slices = _position_slices(tensor, [group[0] for group in plan.groups])
    totals = _grouped_sum(*slices, where, plan, stats)
    return totals if tensor.signs.ndim == 4 else totals[0]
