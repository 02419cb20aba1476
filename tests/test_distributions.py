"""Engine checks: marginals, pairs, intervals, expectations, and grids.

The dim=2, n=2 uncorrelated Wishart admits hand-derived marginals that
anchor the whole engine:

    largest:  e^-x (x^2 - 2x + 2) - 2 e^-2x
    smallest: 2 e^-2x
"""

import io
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad, tplquad
from scipy.special import gammainc

import eigendist.distributions as dist
import eigendist.pseudodet as pseudodet
from eigendist.distributions import (
    CurveGrid,
    cdf_curve,
    cdf_single,
    curve,
    expect_product_unordered,
    expect_single,
    joint_pdf_ordered,
    joint_pdf_unordered,
    mgf_single,
    mgf_unordered,
    moment_single,
    moments_unordered,
    pdf_pair,
    pdf_single,
    prob_all_in,
)
from eigendist.ensembles import (
    Beta,
    CorrelatedWishart,
    GUE,
    NoncentralWishart,
    SpikedWishart,
    Tilt,
    UncorrelatedWishart,
    kernel_form,
    spec_string,
)
from eigendist.errors import CapabilityError, InvalidPlanError, NumericError
from eigendist.pseudodet import (
    _CHUNK,
    EvalStats,
    GroupedPermutationPlan,
    Tensor3,
    _Gather,
    _scale_rows,
    _table_sum,
    pseudo_det_grouped,
)
from eigendist.signedlog import SignedLog

M22 = UncorrelatedWishart(2, 2)


def f_largest(x):
    return math.exp(-x) * (x * x - 2 * x + 2) - 2 * math.exp(-2 * x)


def f_smallest(x):
    return 2 * math.exp(-2 * x)


def joint22(x1, x2):
    return (x1 - x2) ** 2 * math.exp(-x1 - x2)


# -- marginal densities ------------------------------------------------------------


@pytest.mark.parametrize("x", [0.1, 0.7, 1.5, 3.2, 6.0])
def test_m22_marginals_match_closed_forms(x):
    assert pdf_single(M22, 1, x) == pytest.approx(f_largest(x), rel=1e-11, abs=1e-14)
    assert pdf_single(M22, 2, x) == pytest.approx(f_smallest(x), rel=1e-11)


def test_m1_exponential_marginal():
    m11 = UncorrelatedWishart(1, 1)
    assert pdf_single(m11, 1, 0.7) == pytest.approx(math.exp(-0.7), rel=1e-13)


def test_marginal_against_quadrature_of_joint():
    # brute-force marginalization oracle at x = 1
    x = 1.0
    want, _ = quad(lambda y: joint22(x, y), 0.0, x)
    assert pdf_single(M22, 1, x) == pytest.approx(want, rel=1e-10)
    want2, _ = quad(lambda y: joint22(y, x), x, 60.0)
    assert pdf_single(M22, 2, x) == pytest.approx(want2, rel=1e-10)


def test_marginal_outside_support_is_zero():
    assert pdf_single(M22, 1, -0.5) == 0.0
    assert pdf_single(Beta(2, 1, 2), 1, 1.5) == 0.0


def test_marginal_normalization_spot():
    for ell in (1, 2):
        total = expect_single(M22, ell, lambda x: 1.0)
        assert total == pytest.approx(1.0, abs=1e-8)


# -- ordered joint densities ---------------------------------------------------------


def test_full_joint_equals_direct_kernel_eval():
    got = joint_pdf_ordered(M22, (1, 2), (2.0, 1.0))
    assert got == pytest.approx(joint22(2.0, 1.0), rel=1e-12)
    # with constant columns in play
    cw = CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2))
    kf = kernel_form(cw)
    xs = (4.0, 1.0)
    assert joint_pdf_ordered(cw, (1, 2), xs) == pytest.approx(
        kf.ordered_density(xs), rel=1e-11
    )


def test_joint_ordering_violation_is_zero():
    assert joint_pdf_ordered(M22, (1, 2), (1.0, 2.0)) == 0.0


def test_pair_density_matches_joint_for_m2():
    got = pdf_pair(M22, 1, 2, 2.0, 1.0)
    assert got == pytest.approx(joint22(2.0, 1.0), rel=1e-12)


def test_pair_wedge_is_exactly_zero():
    assert pdf_pair(UncorrelatedWishart(4, 5), 1, 2, 1.0, 3.0) == 0.0


def test_pair_tie_vanishes():
    v = pdf_pair(UncorrelatedWishart(4, 5), 1, 2, 3.0, 3.0)
    assert v == 0.0


def test_pair_index_validation():
    for indices, xs in [
        ((2, 1), (2.0, 1.0)),  # ranks out of order
        ((1, 3), (2.0, 1.0)),  # rank past m
        ((2, 2), (1.0, 1.0)),  # repeated rank
        ((0,), (1.0,)),  # rank 0
        ((1, 2), (1.0,)),  # one abscissa short
    ]:
        with pytest.raises(ValueError):
            joint_pdf_ordered(M22, indices, xs)


def test_pair_marginalizes_to_single():
    model = UncorrelatedWishart(3, 4)
    x = 3.0
    want = pdf_single(model, 1, x)
    got, _ = quad(lambda y: pdf_pair(model, 1, 2, x, y), 0.0, x, limit=200)
    assert got == pytest.approx(want, rel=1e-8)


# -- interval probabilities ------------------------------------------------------------


def test_prob_paths_agree_square():
    for a, b in [(0.0, 1.0), (0.5, 3.0), (1.0, 8.0)]:
        det = prob_all_in(M22, a, b, method="determinant")
        ten = prob_all_in(M22, a, b, method="tensor")
        assert det == pytest.approx(ten, rel=1e-12)


def test_prob_against_wedge_quadrature():
    a, b = 0.0, 1.0
    want, _ = dblquad(lambda y, x: joint22(x, y), a, b, a, lambda x: x)
    got = prob_all_in(M22, a, b)
    assert got == pytest.approx(want, rel=1e-9)


def test_prob_total_mass():
    assert prob_all_in(M22, 0.0, math.inf) == pytest.approx(1.0, rel=1e-12)
    assert prob_all_in(GUE(3), -1e6, 1e6) == pytest.approx(1.0, rel=1e-9)


def test_prob_single_eigenvalue_large_shape():
    # one eigenvalue with weight x^400 e^-x: a regularized gamma difference
    got = prob_all_in(UncorrelatedWishart(1, 401), 380.0, 420.0)
    want = gammainc(401, 420.0) - gammainc(401, 380.0)
    assert got == pytest.approx(want, rel=1e-10)


def test_prob_monotone_in_upper_limit():
    vals = [prob_all_in(M22, 0.0, b) for b in (0.5, 1.0, 2.0, 5.0, 12.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert vals[-1] < 1.0 + 1e-12


def test_prob_inverted_interval_raises():
    with pytest.raises(ValueError, match="inverted"):
        prob_all_in(M22, 2.0, 1.0)


def test_prob_bounded_by_single_sided_events():
    # P{all in [a,b]} can exceed neither P{largest <= b} nor P{smallest >= a}
    for a, b in [(0.3, 2.0), (1.0, 5.0)]:
        joint = prob_all_in(M22, a, b)
        upper_only = prob_all_in(M22, 0.0, b)
        lower_only = prob_all_in(M22, a, math.inf)
        assert joint <= min(upper_only, lower_only) + 1e-12


def test_prob_tensor_path_with_constant_columns():
    cw = CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2))
    got = prob_all_in(cw, 0.0, 2.0, method="tensor")
    kf = kernel_form(cw)
    want, _ = dblquad(
        lambda y, x: kf.ordered_density((x, y)), 0.0, 2.0, 0.0, lambda x: x
    )
    assert got == pytest.approx(want, rel=1e-8)


def test_prob_determinant_requires_square():
    # the method is checked before an interval off the support returns 0
    cw = CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2))
    for a, b in [(0.0, 1.0), (-5.0, -1.0)]:
        with pytest.raises(ValueError, match="square"):
            prob_all_in(cw, a, b, method="determinant")
        with pytest.raises(ValueError, match="unknown method"):
            prob_all_in(M22, a, b, method="bogus")


# -- distribution functions --------------------------------------------------------------


def test_cdf_largest_equals_interval_probability():
    for x in (0.5, 2.0, 5.0):
        assert cdf_single(M22, 1, x) == pytest.approx(
            prob_all_in(M22, 0.0, x), abs=1e-8
        )


def test_cdf_smallest_complements_interval_probability():
    for x in (0.5, 2.0):
        assert cdf_single(M22, 2, x) == pytest.approx(
            1.0 - prob_all_in(M22, x, math.inf), abs=1e-8
        )


def test_cdf_curve_monotone_and_bounded():
    grid = np.linspace(0.1, 12.0, 15)
    vals = cdf_curve(M22, 1, grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] >= 0.0 and vals[-1] <= 1.0
    # matches pointwise evaluation
    assert vals[7] == pytest.approx(cdf_single(M22, 1, float(grid[7])), abs=1e-7)


def test_cdf_support_edges():
    assert cdf_single(M22, 1, -1.0) == 0.0
    assert cdf_single(Beta(2, 1, 2), 1, 1.0) == 1.0


# -- expectations ----------------------------------------------------------------------


def test_expectation_of_one_is_one():
    assert expect_single(M22, 1, lambda x: 1.0) == pytest.approx(1.0, abs=1e-8)


def test_ordered_mean_sum_is_trace_mean():
    total = sum(moment_single(M22, ell, 1) for ell in (1, 2))
    assert total == pytest.approx(4.0, rel=1e-8)
    # exact values for this case: 3.5 and 0.5
    assert moment_single(M22, 1, 1) == pytest.approx(3.5, rel=1e-8)
    assert moment_single(M22, 2, 1) == pytest.approx(0.5, rel=1e-8)


def test_gue_first_moments_cancel():
    model = GUE(3)
    total = sum(moment_single(model, ell, 1) for ell in (1, 2, 3))
    assert total == pytest.approx(0.0, abs=1e-9)


def test_mgf_single_matches_quadrature():
    nu = 0.25
    want, _ = quad(lambda x: math.exp(nu * x) * f_largest(x), 0, 200.0)
    assert mgf_single(M22, 1, nu) == pytest.approx(want, rel=1e-8)


def test_mgf_divergence_rejected():
    with pytest.raises(ValueError, match="diverges"):
        mgf_single(M22, 1, 1.0)
    with pytest.raises(ValueError, match="diverges"):
        mgf_unordered(M22, (0.5, 1.5))


# -- unordered subsets ---------------------------------------------------------------


def test_unordered_single_is_mixture_of_marginals():
    for x in (0.4, 1.7, 4.0):
        mix = 0.5 * (pdf_single(M22, 1, x) + pdf_single(M22, 2, x))
        assert joint_pdf_unordered(M22, 1, (x,)) == pytest.approx(mix, rel=1e-10)


def test_unordered_single_m1():
    m11 = UncorrelatedWishart(1, 1)
    assert joint_pdf_unordered(m11, 1, (0.7,)) == pytest.approx(math.exp(-0.7), rel=1e-13)


def test_unordered_full_set_is_exchangeable():
    a = joint_pdf_unordered(M22, 2, (2.0, 1.0))
    b = joint_pdf_unordered(M22, 2, (1.0, 2.0))
    assert a == pytest.approx(b, rel=1e-12)
    # symmetrized ordered density: f_unord = f_ord / 2 on the wedge
    assert a == pytest.approx(joint22(2.0, 1.0) / 2.0, rel=1e-12)


def test_expect_product_identity_factors():
    assert expect_product_unordered(M22, [None, None]) == pytest.approx(1.0, rel=1e-12)


def test_unordered_product_moment_is_determinant_mean():
    # E[det W] = 2 for the 2x2 unit-covariance case
    got = moments_unordered(M22, (1, 1))
    assert got == pytest.approx(2.0, rel=1e-10)


def test_first_moment_via_unordered_product():
    # one monomial factor picks up the mean eigenvalue: E[tr W] / dim
    got = expect_product_unordered(M22, [Tilt(power=1), None])
    assert got == pytest.approx(2.0, rel=1e-10)


def test_joint_mgf_small_rates():
    got = mgf_unordered(M22, (0.1, 0.1))
    # E[e^(0.1 tr W)] via ordered wedge quadrature
    want, _ = dblquad(
        lambda y, x: math.exp(0.1 * (x + y)) * joint22(x, y),
        0.0,
        60.0,
        0.0,
        lambda x: x,
    )
    assert got == pytest.approx(want, rel=1e-7)


def test_unordered_moment_with_non_adjacent_equal_factors():
    # equal factors at positions 1, 3 and at 2, 4 form non-adjacent groups;
    # E[l1 l2] = (E[(tr W)^2] - E[tr W^2]) / 12 = (440 - 200) / 12 = 20
    model = UncorrelatedWishart(4, 5)
    split = moments_unordered(model, (1, 0, 1, 0))
    assert split == pytest.approx(moments_unordered(model, (1, 1, 0, 0)), rel=1e-12)
    assert split == pytest.approx(20.0, rel=1e-10)


def test_unordered_moment_with_constant_columns_is_exchangeable():
    model = CorrelatedWishart(3, 5, (2.0, 1.0), (2, 3))
    got = moments_unordered(model, (2, 0, 1))
    assert got == pytest.approx(moments_unordered(model, (0, 1, 2)), rel=1e-12)
    assert got == pytest.approx(71.5, rel=1e-10)


# -- grouped-plan telemetry ---------------------------------------------------------


def test_marginal_grouping_telemetry():
    stats = EvalStats()
    pdf_single(UncorrelatedWishart(6, 10), 3, 8.0, stats=stats)
    assert stats.determinants == 60  # 6!/(2! 3!), not 720


def test_pair_grouping_telemetry():
    stats = EvalStats()
    pdf_pair(UncorrelatedWishart(4, 5), 1, 3, 5.0, 2.0, stats=stats)
    assert stats.determinants == 24  # 4!/(0! 1! 1!)
    stats = EvalStats()
    pdf_pair(UncorrelatedWishart(4, 5), 1, 2, 5.0, 2.0, stats=stats)
    assert stats.determinants == 12  # 4!/(0! 0! 2!)


def test_marginal_grouping_telemetry_with_constant_columns():
    cw = CorrelatedWishart(2, 4, (2.0, 1.0), (2, 2))
    stats = EvalStats()
    pdf_single(cw, 1, 2.0, stats=stats)
    # a nonzero term takes each constant row at its own position, so only
    # the two random positions permute, one free rank below the fixed one: 2!/1! = 2
    assert stats.determinants == 2


def test_unordered_pdf_grouping_telemetry():
    stats = EvalStats()
    joint_pdf_unordered(UncorrelatedWishart(4, 5), 2, (3.0, 5.0), stats=stats)
    assert stats.determinants == 12  # 4!/(1! 1! 2!)


@pytest.mark.parametrize(
    "call, groups",
    [
        (lambda model: moments_unordered(model, (1, 0, 0, 0)), ((0,), (1, 2, 3))),
        (lambda model: mgf_unordered(model, (0.1,) * 4), ((0, 1, 2, 3),)),
        (lambda model: expect_product_unordered(model, [abs, abs, 1, 1]), ((0, 1), (2, 3))),
    ],
    ids=["moments", "mgf", "callables"],
)
def test_unordered_grouping_by_factor_value(monkeypatch, call, groups):
    # equal factors arrive as separate objects; they must still share one
    # slice key, or the plan would take more determinants than it needs
    plans = []
    engine = dist._table_sum

    def spy(rows, shifts, gather, stats=None):
        plans.append(gather.plan)
        return engine(rows, shifts, gather, stats)

    monkeypatch.setattr(dist, "_table_sum", spy)
    call(UncorrelatedWishart(4, 5))
    assert [plan.groups for plan in plans] == [groups]


def test_pair_grouping_telemetry_with_constant_columns():
    stats = EvalStats()
    cw = CorrelatedWishart(3, 5, (2.0, 1.0), (2, 3))
    joint_pdf_ordered(cw, (1, 3), (6.0, 1.0), stats=stats)
    # 3!: the three random positions each have their own slice, and the two
    # constant rows add no permutations
    assert stats.determinants == 6


def test_full_joint_with_constant_columns_permutes_only_the_random_positions():
    # kernel dimension 8 with 6 random positions: 6! determinants, not 8!
    cw = CorrelatedWishart(6, 8, (2.0, 1.0), (3, 5))
    xs = (20.0, 14.0, 9.0, 6.0, 3.0, 1.0)
    stats = EvalStats()
    got = joint_pdf_ordered(cw, range(1, 7), xs, stats=stats)
    assert stats.determinants == 720
    assert got == pytest.approx(kernel_form(cw).ordered_density(xs), rel=1e-10)


def test_plan_of_ten_chunks_merges_them_chunk_by_chunk(monkeypatch):
    # the full joint of W8x10 has 8! = 40320 representatives: ten chunks,
    # each summed on its own and merged in order
    model = UncorrelatedWishart(8, 10)
    xs = (30.0, 21.0, 15.0, 10.5, 7.0, 4.2, 2.0, 0.6)
    merged = []
    chunk_dets = pseudodet._chunk_dets

    def spy(rows, shifts, index, parity, stats):
        merged.append(len(index))
        return chunk_dets(rows, shifts, index, parity, stats)

    monkeypatch.setattr(pseudodet, "_chunk_dets", spy)
    stats = EvalStats()
    got = joint_pdf_ordered(model, range(1, 9), xs, stats=stats)
    assert stats.determinants == math.factorial(8)
    assert len(merged) == 10 and max(merged) == _CHUNK and sum(merged) == math.factorial(8)
    assert got == pytest.approx(kernel_form(model).ordered_density(xs), rel=1e-7)


# -- distinct slices against the dense tensor ---------------------------------------

# the kernel-rule models of test_ensembles, and one with two constant rows,
# each with three abscissae in descending order inside its support
SLICE_MODELS = [
    (UncorrelatedWishart(3, 5), (7.5, 2.0, 0.3)),
    (SpikedWishart(3, 4, 2.0, 1.0), (7.5, 2.0, 0.3)),
    (CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2)), (7.5, 2.0, 0.3)),
    (CorrelatedWishart(3, 2, (2.0, 1.0), (1, 1)), (7.5, 2.0, 0.3)),
    (GUE(3), (2.2, 0.4, -1.7)),
    (Beta(3, 1, 2), (0.85, 0.5, 0.15)),
    (NoncentralWishart(2, 3, (2.0,)), (7.5, 2.0, 0.3)),
    (CorrelatedWishart(3, 5, (2.0, 1.0), (2, 3)), (7.5, 2.0, 0.3)),
]


def dense_operator(kernel, keys, count):
    """The operator through one dense n x n x n tensor per abscissa set:
    every position holds its key's slice, constant position k holds constant
    row k-m in rows k..n-1, and the positions of one key object form one
    group of the plan."""
    groups = {}
    for k, key in enumerate(keys):
        groups.setdefault(id(key), (key, []))[1].append(k)
    n, m = kernel.n, kernel.m
    signs = np.zeros((count, n, n, n))
    logs = np.full((count, n, n, n), -np.inf)
    for key, ks in groups.values():
        key_signs, key_logs = kernel.slice(key)
        signs[..., ks] = key_signs[..., None]
        logs[..., ks] = key_logs[..., None]
    const_signs, const_logs = kernel.const_rows
    for k in range(m, n):
        signs[:, k:, :, k] = const_signs[k - m]
        logs[:, k:, :, k] = const_logs[k - m]
    positions = tuple(tuple(ks) for _, ks in groups.values()) + tuple((k,) for k in range(m, n))
    return pseudo_det_grouped(Tensor3(signs, logs), GroupedPermutationPlan(n, positions))


@pytest.mark.parametrize("case", SLICE_MODELS, ids=lambda case: spec_string(case[0]))
def test_operator_equals_dense_tensor_sum(monkeypatch, case):
    # the operator hands the permutation sum one slice per group; the dense
    # tensor repeats it at every position of the group, and both give the
    # same value bit for bit
    model, xs = case
    calls = []
    operator = dist._operator

    def spy(kernel, keys, count, stats=None):
        values = operator(kernel, keys, count, stats)
        calls.append((kernel, keys, count, values))
        return values

    monkeypatch.setattr(dist, "_operator", spy)
    m = kernel_form(model).m
    for ell in range(1, m + 1):
        pdf_single(model, ell, xs[1])
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    for ell, s in pairs:
        pdf_pair(model, ell, s, xs[0], xs[2])
    for count in range(1, m + 1):
        joint_pdf_unordered(model, count, xs[:count])
    moments_unordered(model, (1,) + (0,) * (m - 1))
    moments_unordered(model, tuple(range(m)))
    assert len(calls) == 2 * m + len(pairs) + 2
    for kernel, keys, count, values in calls:
        assert dense_operator(kernel, keys, count) == values


def test_nan_slice_raises_through_operator(monkeypatch):
    # a kernel object of its own, so that no other test meets its slices
    kernel = kernel_form.__wrapped__(UncorrelatedWishart(3, 5))
    fill = kernel.slice

    def poisoned(key):
        signs, logs = fill(key)
        logs = logs.copy()
        logs[..., 1, 2] = np.nan
        return signs, logs

    monkeypatch.setattr(kernel, "slice", poisoned)
    segment = (0.0, 2.0, dist.IDENTITY_TILT)
    with pytest.raises(NumericError, match=r"non-finite element in slice \d at \(2, 3\)"):
        dist._operator(kernel, [4.0, segment, segment], 1)


def test_nan_constant_row_raises():
    kernel = kernel_form.__wrapped__(CorrelatedWishart(3, 5, (2.0, 1.0), (2, 3)))
    signs, logs = kernel.const_rows
    logs = logs.copy()
    logs[1, 3] = np.nan
    kernel.const_rows = signs, logs
    with pytest.raises(NumericError, match=r"non-finite element in constant row 2 at column 4"):
        dist._operator(kernel, [4.0, 2.0, 1.0], 1)
    assert "const" not in kernel.memo


def test_poisoned_slice_raises_when_filled_and_stays_out_of_the_memo(monkeypatch):
    # a slice is checked once, when it is filled; one that fails never enters
    # the memo, so the next call with its key fills and checks it again
    kernel = kernel_form.__wrapped__(UncorrelatedWishart(3, 5))
    fill = kernel.slice
    clean = (0.0, 2.0, dist.IDENTITY_TILT)
    dist._operator(kernel, [4.0, clean, clean], 1)
    before = dict(kernel.memo["slices"])
    passes = []

    def poisoned(key):
        passes.append(key)
        signs, logs = fill(key)
        logs = logs.copy()
        logs[..., 0, 1] = np.inf
        return signs, logs

    monkeypatch.setattr(kernel, "slice", poisoned)
    segment = (0.0, 3.0, dist.IDENTITY_TILT)
    for _ in range(2):
        with pytest.raises(NumericError, match=r"non-finite element in slice 2 at \(1, 2\)"):
            dist._operator(kernel, [4.0, segment, segment], 1)
        assert kernel.memo["slices"].keys() == before.keys()
    # the point slice at 4.0 is reused; the segment is filled by each call
    assert len(passes) == 2 and all(isinstance(key, tuple) for key in passes)


def test_slices_hold_one_slice_per_key_with_no_vector(monkeypatch):
    # a key with no vector holds one slice, which the operator broadcasts
    # across the abscissa sets, and a key with a vector one per set; the keys
    # of one tilt, with a vector or not, share one kernel pass
    kernel = kernel_form.__wrapped__(UncorrelatedWishart(4, 6))
    n, (lo, hi) = kernel.n, kernel.support
    fill, passes = kernel.slice, []

    def spy(key):
        passes.append(key)
        return fill(key)

    monkeypatch.setattr(kernel, "slice", spy)
    xs = np.array([1.0, 2.5, 4.0])
    keys = [
        3.0,
        xs,
        (lo, hi, dist.IDENTITY_TILT),
        (xs, hi, dist.IDENTITY_TILT),
        (lo, hi, Tilt(power=2)),
    ]
    stacks = dist._slices(kernel, keys, len(xs))
    assert [signs.shape for (signs, _), _ in stacks] == [(1, n, n), (3, n, n), (1, n, n), (3, n, n), (1, n, n)]
    assert len(passes) == 3  # the points, and the segments of each tilt
    for key, ((signs, logs), _) in zip(keys, stacks):
        want_signs, want_logs = fill(key)
        assert np.array_equal(signs, want_signs.reshape(signs.shape))
        assert np.array_equal(logs, want_logs.reshape(logs.shape))


def test_plan_group_spanning_two_slices_rejected():
    rng = np.random.default_rng(3)
    signs = np.sign(rng.standard_normal((1, 2, 3, 3)))
    logs = rng.standard_normal((1, 2, 3, 3))
    plan = GroupedPermutationPlan(3, ((0, 1), (2,)))
    gather = _Gather(plan, np.array([0, 0, 1]), 3, 0)
    rows, shifts, _ = _scale_rows(signs, logs)
    (sign,), (log,) = _table_sum(rows.reshape(1, 6, 3), shifts.reshape(1, 6), gather)
    dense = Tensor3(signs[0, [0, 0, 1]].transpose(1, 2, 0), logs[0, [0, 0, 1]].transpose(1, 2, 0))
    assert SignedLog.from_log(log, sign) == pseudo_det_grouped(dense, plan)
    with pytest.raises(InvalidPlanError, match=r"group \(0, 1\)"):
        _Gather(plan, np.array([0, 1, 1]), 3, 0)


# -- capability limits ---------------------------------------------------------------


def test_capability_errors():
    with pytest.raises(CapabilityError):
        pdf_single(UncorrelatedWishart(9, 12), 1, 1.0)
    with pytest.raises(CapabilityError):
        prob_all_in(GUE(9), -1.0, 1.0)
    with pytest.raises(CapabilityError):
        pdf_single(CorrelatedWishart(7, 9, (2.0, 1.0), (4, 5)), 1, 1.0)
    with pytest.raises(CapabilityError):
        pdf_pair(UncorrelatedWishart(9, 12), 1, 2, 1.0, 3.0)  # a wedge point too


# -- curves and serialization ----------------------------------------------------------


def test_curve_pdf_and_csv_format():
    grid = np.linspace(0.0, 5.0, 6)
    cg = curve(M22, "pdf", grid, index=1)
    assert cg.meta["statistic"] == "pdf"
    buf = io.StringIO()
    cg.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].startswith("# ensemble=uncorrelated-wishart M=2 n=2")
    assert "statistic=pdf" in lines[0] and "indices=1" in lines[0]
    assert len(lines) == 7
    x, v = lines[3].split(",")
    assert float(x) == pytest.approx(2.0)
    assert float(v) == pytest.approx(pdf_single(M22, 1, 2.0), rel=1e-15)
    # 17 significant digits survive a round trip
    assert float(v) == float(f"{float(v):.17g}")


def test_curve_unordered_statistic():
    grid = np.linspace(0.5, 3.0, 4)
    cg = curve(M22, "unordered-pdf", grid)
    for x, v in zip(cg.xs, cg.values):
        assert v == pytest.approx(joint_pdf_unordered(M22, 1, (x,)), rel=1e-12)


def test_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        curve(M22, "pdf", [1.0, 0.5], index=1)
    with pytest.raises(ValueError):
        curve(M22, "nope", [0.5, 1.0])
    with pytest.raises(ValueError):
        curve(M22, "pdf", [0.5, 1.0])  # missing index


def test_curvegrid_validation():
    with pytest.raises(ValueError):
        CurveGrid((1.0, 2.0), (0.5,))
    with pytest.raises(ValueError):
        CurveGrid((1.0,), (math.nan,))


# -- spiked engine sanity ----------------------------------------------------------------


def test_spiked_largest_shifts_right():
    plain = UncorrelatedWishart(4, 5)
    spiked = SpikedWishart(4, 5, 10.0, 1.0)
    mode_plain = max(np.linspace(0.5, 30, 80), key=lambda x: pdf_single(plain, 1, x))
    mode_spiked = max(np.linspace(0.5, 120, 160), key=lambda x: pdf_single(spiked, 1, x))
    assert mode_spiked > mode_plain + 10.0


def test_tplquad_oracle_gue3_interval():
    model = GUE(3)
    kf = kernel_form(model)
    a, b = -1.0, 1.5
    want, _ = tplquad(
        lambda z, y, x: kf.ordered_density((x, y, z)),
        a,
        b,
        a,
        lambda x: x,
        a,
        lambda x, y: y,
        epsabs=1e-10,
    )
    got = prob_all_in(model, a, b)
    assert got == pytest.approx(want, rel=1e-7)
