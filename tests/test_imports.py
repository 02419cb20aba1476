"""Which requests load scipy: the Wishart-type kernels need log gamma on the
integer and half-integer grids only, which ``specfun`` keeps itself; GUE
seeds its half-integer tables with ``erfcx`` and Beta integrates with the
incomplete beta function, both from ``scipy.special``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

WISHART_REQUESTS = """
import sys

import eigendist
import eigendist.cli
from eigendist import (
    GUE, Beta, CorrelatedWishart, NoncentralWishart, SpikedWishart, UncorrelatedWishart,
    cdf_single, mgf_unordered, moments_unordered, pdf_single, prob_all_in,
)

for model in (
    UncorrelatedWishart(3, 5),
    SpikedWishart(3, 5, 4.0, 1.0),
    CorrelatedWishart(3, 5, (2.0, 1.0), (2, 3)),
    NoncentralWishart(3, 4, (3.0, 0.5)),
):
    pdf_single(model, 1, 2.0)
    cdf_single(model, 2, 3.0)
    prob_all_in(model, 0.5, 6.0)
    moments_unordered(model, (1, 2, 0))
    mgf_unordered(model, (0.1, 0.2, 0.0))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


@pytest.mark.parametrize(
    "request_",
    ["prob_all_in(GUE(3), -1.0, 1.0)", "pdf_single(Beta(3, 1, 2), 1, 0.5)"],
)
def test_only_gue_and_beta_requests_load_scipy(request_):
    script = WISHART_REQUESTS + f"{request_}\nassert 'scipy.special' in sys.modules\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
