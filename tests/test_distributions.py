"""Engine checks: marginals, pairs, intervals, expectations, and grids.

The dim=2, n=2 uncorrelated Wishart admits hand-derived marginals that
anchor the whole engine:

    largest:  e^-x (x^2 - 2x + 2) - 2 e^-2x
    smallest: 2 e^-2x
"""

import io
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad, tplquad
from scipy.special import gammainc

import eigendist.distributions as dist
from eigendist.distributions import (
    CurveGrid,
    SegmentLayout,
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
    SpikedWishart,
    Tilt,
    UncorrelatedWishart,
    kernel_form,
)
from eigendist.errors import CapabilityError
from eigendist.pseudodet import EvalStats

M22 = UncorrelatedWishart(2, 2)


def f_largest(x):
    return math.exp(-x) * (x * x - 2 * x + 2) - 2 * math.exp(-2 * x)


def f_smallest(x):
    return 2 * math.exp(-2 * x)


def joint22(x1, x2):
    return (x1 - x2) ** 2 * math.exp(-x1 - x2)


# -- segment layouts -------------------------------------------------------------


def test_layout_segments_single_fixed():
    lay = SegmentLayout(4, (2,), (3.0,), (0.0, math.inf))
    assert lay.segment_of(1) == 1
    assert lay.segment_of(3) == 2
    assert lay.segment_of(4) == 2
    assert lay.segment_bounds(1) == (3.0, math.inf)
    assert lay.segment_bounds(2) == (0.0, 3.0)
    with pytest.raises(ValueError):
        lay.segment_of(2)  # fixed rank


def test_layout_segments_pair():
    lay = SegmentLayout(4, (1, 3), (5.0, 2.0), (0.0, math.inf))
    assert lay.segment_of(2) == 2
    assert lay.segment_bounds(2) == (2.0, 5.0)
    assert lay.segment_of(4) == 3
    assert lay.segment_bounds(3) == (0.0, 2.0)
    assert lay.log_order_constant() == pytest.approx(0.0)  # all gaps 0 or 1


def test_layout_ordering_detection():
    lay = SegmentLayout(3, (1, 2), (1.0, 2.0), (0.0, math.inf))
    assert not lay.ordering_holds()
    lay = SegmentLayout(3, (1, 2), (2.0, 1.0), (0.0, math.inf))
    assert lay.ordering_holds()
    lay = SegmentLayout(3, (1,), (-1.0,), (0.0, math.inf))
    assert not lay.ordering_holds()
    lay = SegmentLayout(3, (1, 2), (2.0, 2.0), (0.0, math.inf))
    assert not lay.ordering_holds()  # a tie is off the support


def test_layout_validation():
    with pytest.raises(ValueError):
        SegmentLayout(3, (2, 2), (1.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        SegmentLayout(3, (0,), (1.0,), (0.0, 1.0))
    with pytest.raises(ValueError):
        SegmentLayout(3, (1, 2), (1.0,), (0.0, 1.0))


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
    with pytest.raises(ValueError):
        pdf_pair(M22, 2, 1, 2.0, 1.0)
    with pytest.raises(ValueError):
        pdf_pair(M22, 1, 3, 2.0, 1.0)


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
    cw = CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2))
    with pytest.raises(ValueError, match="square"):
        prob_all_in(cw, 0.0, 1.0, method="determinant")


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
    # kernel dimension 4, one free rank below the fixed one: 4!/1! = 24
    assert stats.determinants == 24


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
    engine = dist.pseudo_det_grouped

    def spy(tensor, plan, stats=None):
        plans.append(plan)
        return engine(tensor, plan, stats)

    monkeypatch.setattr(dist, "pseudo_det_grouped", spy)
    call(UncorrelatedWishart(4, 5))
    assert [plan.groups for plan in plans] == [groups]


def test_pair_grouping_telemetry_with_constant_columns():
    stats = EvalStats()
    cw = CorrelatedWishart(3, 5, (2.0, 1.0), (2, 3))
    joint_pdf_ordered(cw, (1, 3), (6.0, 1.0), stats=stats)
    assert stats.determinants == 120  # 5!: every slice is its own group


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
