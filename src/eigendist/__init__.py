"""Exact eigenvalue distributions of finite-dimensional random matrices."""

from .signedlog import SignedLog
from .pseudodet import (
    Tensor3,
    GroupedPermutationPlan,
    EvalStats,
    det_signed_log,
    pseudo_det,
    pseudo_det_grouped,
)
from .ensembles import (
    UncorrelatedWishart,
    CorrelatedWishart,
    SpikedWishart,
    NoncentralWishart,
    GUE,
    Beta,
    Tilt,
    kernel_form,
    normalization_check,
    parse_spec,
    spec_string,
    mean_eigenvalue_sum,
)
from .distributions import (
    CurveGrid,
    joint_pdf_ordered,
    pdf_single,
    pdf_pair,
    pdf_pair_grid,
    prob_all_in,
    cdf_single,
    cdf_curve,
    expect_single,
    moment_single,
    mgf_single,
    joint_pdf_unordered,
    expect_product_unordered,
    moments_unordered,
    mgf_unordered,
    curve,
)
from .montecarlo import (
    SampleBatch,
    EmpiricalStat,
    CompareReport,
    sample,
    empirical_cdf,
    empirical_moment,
    compare,
)
from .errors import (
    CapabilityError,
    ConditioningWarning,
    InvalidModelError,
    InvalidPlanError,
    NumericError,
)

__version__ = "0.1.0"
