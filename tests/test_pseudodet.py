"""Pseudo-determinant operator checks against brute-force enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigendist.errors import InvalidPlanError, NumericError
from eigendist.pseudodet import (
    EvalStats,
    GroupedPermutationPlan,
    Tensor3,
    det_signed_log,
    _Gather,
    pseudo_det,
    pseudo_det_grouped,
)
from eigendist.signedlog import SignedLog


def perm_sign(p):
    inv = sum(1 for a, b in itertools.combinations(range(len(p)), 2) if p[a] > p[b])
    return -1 if inv % 2 else 1


def brute_double_sum(n, elem):
    """Direct double-permutation oracle; elem takes 1-based (i, j, k)."""
    total = 0.0
    for mu in itertools.permutations(range(1, n + 1)):
        for al in itertools.permutations(range(1, n + 1)):
            prod = 1.0
            for k in range(1, n + 1):
                prod *= elem(mu[k - 1], al[k - 1], k)
            total += perm_sign(mu) * perm_sign(al) * prod
    return total


def tensor_from_values(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.where(values == 0.0, -np.inf, np.log(np.abs(values)))
    return Tensor3(np.sign(values), logs)


def random_tensor(rng, n, scale=1.0):
    return rng.standard_normal((n, n, n)) * scale


# -- determinant helper --------------------------------------------------------


def test_det_identity():
    eye = [[SignedLog.of(1.0 if i == j else 0.0) for j in range(3)] for i in range(3)]
    d = det_signed_log(eye)
    assert d.sign == 1 and d.logmag == pytest.approx(0.0, abs=1e-15)


def test_det_log_domain_scale():
    m = [
        [SignedLog.from_log(1000.0), SignedLog.zero()],
        [SignedLog.zero(), SignedLog.from_log(1000.0)],
    ]
    d = det_signed_log(m)
    assert d.sign == 1 and d.logmag == pytest.approx(2000.0)


def test_det_hand_value():
    m = [[SignedLog.of(v) for v in row] for row in [[1.0, 2.0], [3.0, 4.0]]]
    assert det_signed_log(m).to_float() == pytest.approx(-2.0)


def test_det_singular_returns_zero():
    m = [[SignedLog.of(v) for v in row] for row in [[1.0, 2.0], [2.0, 4.0]]]
    assert det_signed_log(m).sign == 0


# -- pseudo-determinant --------------------------------------------------------


def test_single_element():
    t = tensor_from_values([[[5.0]]])
    assert pseudo_det(t).to_float() == pytest.approx(5.0)


def test_k_independent_degenerates_to_scaled_det():
    # slices equal to the identity: result is 3! * det(I) = 6
    vals = np.zeros((3, 3, 3))
    for k in range(3):
        vals[:, :, k] = np.eye(3)
    t = tensor_from_values(vals)
    assert pseudo_det(t).to_float() == pytest.approx(6.0)


def test_linear_index_tensor_matches_brute_force():
    # value frozen from the double-permutation oracle: -4
    elem = lambda i, j, k: i + 2 * j + 3 * k
    assert brute_double_sum(2, elem) == pytest.approx(-4.0)
    vals = np.fromfunction(
        lambda i, j, k: (i + 1) + 2 * (j + 1) + 3 * (k + 1), (2, 2, 2)
    )
    t = tensor_from_values(vals)
    assert pseudo_det(t).to_float() == pytest.approx(-4.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_tensors_match_brute_force(n):
    rng = np.random.default_rng(42 + n)
    for _ in range(5):
        vals = random_tensor(rng, n)
        t = tensor_from_values(vals)
        want = brute_double_sum(n, lambda i, j, k: vals[i - 1, j - 1, k - 1])
        assert pseudo_det(t).to_float() == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_k_independent_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    slab = rng.standard_normal((n, n))
    vals = np.repeat(slab[:, :, None], n, axis=2)
    t = tensor_from_values(vals)
    want = math.factorial(n) * np.linalg.det(slab)
    assert pseudo_det(t).to_float() == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_column_swap_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    vals = random_tensor(rng, n)
    swapped = vals.copy()
    swapped[:, [0, 1], :] = swapped[:, [1, 0], :]
    a = pseudo_det(tensor_from_values(vals)).to_float()
    b = pseudo_det(tensor_from_values(swapped)).to_float()
    assert b == pytest.approx(-a, rel=1e-10, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_duplicate_first_index_rows_annihilate(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    vals = random_tensor(rng, n)
    vals[1, :, :] = vals[0, :, :]  # identical first-index rows in every slice
    t = tensor_from_values(vals)
    result = pseudo_det(t)
    scale = np.exp(np.abs(np.log(np.abs(vals))).max() * 0)  # magnitude-scaled zero
    assert abs(result.to_float()) <= 1e-10 * max(1.0, np.abs(vals).max() ** n)


# -- grouping ------------------------------------------------------------------


def grouped_random_tensor(rng, n, sizes):
    """Random tensor honoring k-constancy over contiguous leading groups."""
    vals = np.empty((n, n, n))
    pos = 0
    for size in sizes:
        slab = rng.standard_normal((n, n))
        for k in range(pos, pos + size):
            vals[:, :, k] = slab
        pos += size
    for k in range(pos, n):
        vals[:, :, k] = rng.standard_normal((n, n))
    return vals


def test_degenerate_single_group():
    rng = np.random.default_rng(7)
    n = 4
    vals = grouped_random_tensor(rng, n, [n])
    t = tensor_from_values(vals)
    plan = GroupedPermutationPlan.from_segment_sizes(n, [n])
    assert plan.representative_count == 1
    got = pseudo_det_grouped(t, plan).to_float()
    want = math.factorial(n) * np.linalg.det(vals[:, :, 0])
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "n,sizes,count",
    [
        (4, [1, 2], 12),   # one fixed slot, two interchangeable, one residual
        (4, [1, 1, 1, 1], 24),
        (6, [2, 1, 3], 60),
        (5, [2, 3], 10),
    ],
)
def test_representative_counts(n, sizes, count):
    plan = GroupedPermutationPlan.from_segment_sizes(n, sizes)
    assert plan.representative_count == count
    stats = EvalStats()
    rng = np.random.default_rng(n * 100 + len(sizes))
    t = tensor_from_values(grouped_random_tensor(rng, n, sizes))
    pseudo_det_grouped(t, plan, stats)
    assert stats.determinants == count


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grouped_equals_naive_on_many_random_tensors(n):
    rng = np.random.default_rng(1234 + n)
    partitions = [[n], [1, n - 1], [2, n - 2], [1, 1, n - 2], [2, 2]]
    checked = 0
    for _ in range(6):
        for sizes in partitions:
            if sum(sizes) > n:
                continue
            vals = grouped_random_tensor(rng, n, sizes)
            t = tensor_from_values(vals)
            plan = GroupedPermutationPlan.from_segment_sizes(n, sizes)
            a = pseudo_det_grouped(t, plan).to_float()
            b = pseudo_det(t).to_float()
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)
            checked += 1
    assert checked >= 20


def test_small_plan_enumerates_once():
    plan = GroupedPermutationPlan.from_segment_sizes(5, (2, 2))
    where = np.array([0, 0, 1, 1, 2])
    gather = _Gather(plan, where, 5, 0)
    chunks = gather.chunks()
    assert chunks is gather.chunks()
    # position k of a representative mu takes table row 5 * where[k] + mu_k
    rows = np.concatenate([index - 5 * where for index, _parity in chunks])
    assert len(rows) == plan.representative_count == 30
    assert len({tuple(r) for r in rows}) == 30
    for index, parity in chunks:
        assert list(parity) == [perm_sign(tuple(r)) for r in index - 5 * where]
    rng = np.random.default_rng(11)
    tensor = Tensor3(np.ones((5, 5, 5)), rng.standard_normal((5, 5, 5)))
    tensor.signs[...] = tensor.signs[:, :, [0, 0, 2, 2, 4]]
    tensor.logs[...] = tensor.logs[:, :, [0, 0, 2, 2, 4]]
    first = pseudo_det_grouped(tensor, plan)
    again = pseudo_det_grouped(tensor, plan)
    fresh = pseudo_det_grouped(tensor, GroupedPermutationPlan.from_segment_sizes(5, (2, 2)))
    assert first == again == fresh


def test_plan_of_one_chunk_over_1024_representatives_is_kept():
    # m = 7 with one pair group: 2520 representatives, one chunk
    plan = GroupedPermutationPlan.from_segment_sizes(7, (2,))
    gather = _Gather(plan, np.array([0, 0, 1, 2, 3, 4, 5]), 7, 0)
    chunks = gather.chunks()
    assert chunks is gather.chunks()
    assert [len(index) for index, _parity in chunks] == [plan.representative_count] == [2520]
    t = tensor_from_values(grouped_random_tensor(np.random.default_rng(17), 7, [2]))
    assert pseudo_det_grouped(t, plan).to_float() == pytest.approx(pseudo_det(t).to_float(), rel=1e-10)


def test_plan_mismatch_detected():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((4, 4, 4))  # no k-constancy at all
    t = tensor_from_values(vals)
    plan = GroupedPermutationPlan.from_segment_sizes(4, [3])
    with pytest.raises(InvalidPlanError):
        pseudo_det_grouped(t, plan)


def test_plan_mismatch_in_one_entry_detected():
    # slices 1..3 agree everywhere except entry (1, 1) of slice 3; grouping
    # them anyway would return a wrong value instead of the full sum
    rng = np.random.default_rng(11)
    vals = grouped_random_tensor(rng, 4, [3])
    vals[0, 0, 2] += 1.0
    t = tensor_from_values(vals)
    plan = GroupedPermutationPlan.from_segment_sizes(4, [3])
    with pytest.raises(InvalidPlanError, match=r"group \(0, 1, 2\) at \(1, 1\)"):
        pseudo_det_grouped(t, plan)


def test_plan_partition_validated():
    with pytest.raises(InvalidPlanError):
        GroupedPermutationPlan(3, ((0, 1), (1, 2)))
    with pytest.raises(InvalidPlanError):
        GroupedPermutationPlan(3, ((0,),))


def test_plan_dimension_mismatch():
    t = tensor_from_values(np.ones((2, 2, 2)))
    plan = GroupedPermutationPlan.singletons(3)
    with pytest.raises(InvalidPlanError):
        pseudo_det_grouped(t, plan)


# -- error handling --------------------------------------------------------------


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        Tensor3(np.zeros((0, 0, 0)), np.zeros((0, 0, 0)))


def test_nan_element_reported_with_indices():
    vals = np.ones((2, 2, 2))
    logs = np.zeros((2, 2, 2))
    logs[1, 0, 1] = np.nan
    with pytest.raises(NumericError, match=r"\(2, 1, 2\)"):
        Tensor3(vals, logs)


def test_element_accessor_is_one_based():
    vals = np.fromfunction(
        lambda i, j, k: (i + 1) + 10 * (j + 1) + 100 * (k + 1), (3, 3, 3)
    )
    t = tensor_from_values(vals)
    assert t.element(2, 3, 1).to_float() == pytest.approx(132.0)
    with pytest.raises(IndexError):
        t.element(0, 1, 1)
