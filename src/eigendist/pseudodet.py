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
    """Dense rank-3 tensor of signed-log values, indexed 1-based."""

    __slots__ = ("n", "signs", "logs")

    def __init__(self, signs: np.ndarray, logs: np.ndarray):
        signs = np.asarray(signs, dtype=np.float64)
        logs = np.asarray(logs, dtype=np.float64)
        if signs.ndim != 3 or signs.shape != logs.shape:
            raise ValueError("signs and logs must be equal-shape rank-3 arrays")
        n = signs.shape[0]
        if n < 1 or signs.shape != (n, n, n):
            raise ValueError(f"tensor must be cubic with dimension >= 1, got {signs.shape}")
        bad = np.isnan(logs) | (logs == np.inf) | np.isnan(signs)
        if bad.any():
            i, j, k = (int(v) + 1 for v in np.argwhere(bad)[0])
            raise NumericError(f"non-finite tensor element at ({i}, {j}, {k})")
        mismatch = (signs == 0) != (logs == -np.inf)
        if mismatch.any():
            i, j, k = (int(v) + 1 for v in np.argwhere(mismatch)[0])
            raise NumericError(f"sign/log convention violated at ({i}, {j}, {k})")
        self.n = n
        self.signs = signs
        self.logs = logs

    def element(self, i: int, j: int, k: int) -> SignedLog:
        if not (1 <= i <= self.n and 1 <= j <= self.n and 1 <= k <= self.n):
            raise IndexError(f"indices ({i}, {j}, {k}) outside 1..{self.n}")
        s = self.signs[i - 1, j - 1, k - 1]
        return SignedLog.from_log(self.logs[i - 1, j - 1, k - 1], int(s) if s else 0)


class EvalStats:
    """Telemetry for one operator evaluation."""

    __slots__ = ("determinants",)

    def __init__(self) -> None:
        self.determinants = 0


def _batch_det(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of a (B, N, N) stack of signed-log matrices."""
    rowmax = logs.max(axis=2)
    finite = np.isfinite(rowmax)
    shift = np.where(finite, rowmax, 0.0)
    with np.errstate(under="ignore"):
        resid = signs * np.exp(logs - shift[:, :, None])
    sgn, logdet = np.linalg.slogdet(resid)
    total = logdet + shift.sum(axis=1)
    total = np.where(finite.all(axis=1), total, -np.inf)
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

    def chunks(self):
        """Class representatives in chunks of at most _CHUNK, each with its
        parity signs.  A plan of at most _CACHED_REPS representatives
        enumerates them once and keeps them, for a caller that evaluates one
        grouping at many abscissae."""
        if self.representative_count > _CACHED_REPS:
            return _chunks(_representatives(self.groups, self.n))
        return self._kept_chunks

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
        first = np.empty(self.n, dtype=np.intp)
        for g in self.groups:
            first[list(g)] = g[0]
        ref_s = tensor.signs[:, :, first]
        ref_l = tensor.logs[:, :, first]
        # equal signs imply both logs finite or both -inf (Tensor3 convention)
        with np.errstate(invalid="ignore"):
            drift = np.abs(tensor.logs - ref_l) > rtol * np.maximum(1.0, np.abs(ref_l))
        for bad, what in (
            (tensor.signs != ref_s, "changes sign"),
            (np.isfinite(ref_l) & drift, "varies"),
        ):
            if bad.any():
                i, j, k = (int(v) for v in np.argwhere(bad)[0])
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


def _chunk_terms(
    tensor: Tensor3, mu_batch: np.ndarray, parity: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    n = tensor.n
    signs_t = tensor.signs.transpose(2, 0, 1)
    logs_t = tensor.logs.transpose(2, 0, 1)
    rows = np.arange(n)[None, :]
    mats_s = signs_t[rows, mu_batch, :]
    mats_l = logs_t[rows, mu_batch, :]
    det_sgn, det_log = _batch_det(mats_s, mats_l)
    return det_sgn * parity, det_log


def _chunks(mu_iter):
    """Permutation chunks of at most _CHUNK rows, each with its parity signs."""
    while True:
        block = list(itertools.islice(mu_iter, _CHUNK))
        if not block:
            return
        batch = np.asarray(block, dtype=np.intp)
        yield batch, _perm_signs(batch)


def _accumulate(tensor: Tensor3, chunks, stats: EvalStats | None) -> SignedLog:
    acc = SignedLogSum()
    for batch, parity in chunks:
        if stats is not None:
            stats.determinants += len(batch)
        s, l = _chunk_terms(tensor, batch, parity)
        acc.add_terms(s, l)
    return acc.total()


def pseudo_det(tensor: Tensor3, stats: EvalStats | None = None) -> SignedLog:
    """Full permutation-sum evaluation: one determinant per slice permutation."""
    mu_iter = (np.asarray(p, dtype=np.intp) for p in itertools.permutations(range(tensor.n)))
    return _accumulate(tensor, _chunks(mu_iter), stats)


def pseudo_det_grouped(
    tensor: Tensor3, plan: GroupedPermutationPlan, stats: EvalStats | None = None
) -> SignedLog:
    """Grouped evaluation over class representatives with multiplicity weight."""
    plan.check_against(tensor)
    total = _accumulate(tensor, plan.chunks(), stats)
    return total.scaled(float(plan.multiplicity))
