"""Sampler laws, reproducibility, and the empirical comparison gate."""

import math

import numpy as np
import pytest
from scipy.stats import expon, ks_2samp, kstest, norm

from eigendist.distributions import CurveGrid, curve
from eigendist.ensembles import (
    Beta,
    CorrelatedWishart,
    GUE,
    NoncentralWishart,
    SpikedWishart,
    UncorrelatedWishart,
    mean_eigenvalue_sum,
    spec_string,
)
from eigendist.montecarlo import (
    EmpiricalStat,
    compare,
    empirical_cdf,
    empirical_moment,
    sample,
)

TRACE_MODELS = [
    UncorrelatedWishart(2, 2),
    CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2)),
    CorrelatedWishart(3, 2, (2.0, 1.0), (1, 1)),
    SpikedWishart(3, 4, 2.0, 1.0),
    NoncentralWishart(2, 3, (2.0,)),
    GUE(3),
]


# GUE, uncorrelated and spiked Wishart are sampled from tridiagonal models;
# these are the shapes the two-sample check runs, edge shapes included
TRIDIAGONAL_MODELS = [
    GUE(1),
    GUE(3),
    GUE(6),
    UncorrelatedWishart(1, 1),
    UncorrelatedWishart(3, 5),
    UncorrelatedWishart(4, 4),
    SpikedWishart(3, 4, 10.0, 1.0),
    SpikedWishart(4, 4, 3.0, 1.0),
]


def _dense_spectra(model, count, seed):
    """Descending spectra from each model's defining dense complex matrix:
    GUE as (B + B^H)/2, Wishart as X X^H with row variances 1 (uncorrelated)
    or (sigma1, sigma2, ...) (spiked), B and X with unit-variance circular
    complex Gaussian entries."""
    rng = np.random.default_rng(seed)

    def cnormal(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

    if isinstance(model, GUE):
        b = cnormal((count, model.dim, model.dim))
        mats = (b + b.conj().transpose(0, 2, 1)) / 2.0
    else:
        rows = np.ones(model.dim)
        if isinstance(model, SpikedWishart):
            rows = np.r_[model.sigma1, np.full(model.dim - 1, model.sigma2)]
        x = np.sqrt(rows)[None, :, None] * cnormal((count, model.dim, model.n))
        mats = x @ x.conj().transpose(0, 2, 1)
    return np.linalg.eigvalsh(mats)[:, ::-1]


@pytest.mark.parametrize("model", TRIDIAGONAL_MODELS, ids=lambda m: spec_string(m))
def test_tridiagonal_matches_dense_construction(model):
    tridiagonal = sample(model, 50_000, seed=31).eigenvalues
    dense = _dense_spectra(model, 50_000, seed=32)
    for ell in range(model.dim):
        p = ks_2samp(tridiagonal[:, ell], dense[:, ell]).pvalue
        assert p > 1e-3, f"ell={ell + 1}: two-sample KS p = {p:.2e}"


@pytest.mark.parametrize("model", TRIDIAGONAL_MODELS, ids=lambda m: spec_string(m))
def test_tridiagonal_edge_shapes(model):
    eigs = sample(model, 40_000, seed=6).eigenvalues  # spans two chunks
    assert eigs.shape == (40_000, model.dim)
    assert np.all(np.isfinite(eigs))
    assert np.all(np.diff(eigs, axis=1) <= 0)
    if not isinstance(model, GUE):
        assert np.all(eigs >= 0)


def test_one_eigenvalue_laws():
    # GUE(1) under e^(-x^2) is N(0, 1/2); UncorrelatedWishart(1, 1) is Exp(1)
    gue = sample(GUE(1), 50_000, seed=33).eigenvalues[:, 0]
    assert kstest(gue, norm(scale=math.sqrt(0.5)).cdf).pvalue > 1e-3
    wishart = sample(UncorrelatedWishart(1, 1), 50_000, seed=33).eigenvalues[:, 0]
    assert kstest(wishart, expon.cdf).pvalue > 1e-3


def test_seed_determinism():
    a = sample(GUE(2), 70_000, seed=11)  # spans multiple chunks
    b = sample(GUE(2), 70_000, seed=11)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    c = sample(GUE(2), 70_000, seed=12)
    assert not np.array_equal(a.eigenvalues, c.eigenvalues)


def test_rows_sorted_descending():
    batch = sample(UncorrelatedWishart(3, 4), 2_000, seed=5)
    assert np.all(np.diff(batch.eigenvalues, axis=1) <= 0)
    assert np.all(batch.eigenvalues >= 0)


@pytest.mark.parametrize("model", TRACE_MODELS, ids=lambda m: spec_string(m))
def test_trace_law(model):
    batch = sample(model, 100_000, seed=3)
    mean, se = empirical_moment(batch, lambda row: row.sum())
    want = mean_eigenvalue_sum(model)
    assert abs(mean - want) < 4.0 * se


def test_single_exponential_mean():
    batch = sample(UncorrelatedWishart(1, 1), 1_000_000, seed=9)
    mean, se = empirical_moment(batch, lambda row: row[0])
    assert abs(mean - 1.0) < 3.0 * se


def test_beta_support():
    batch = sample(Beta(2, 1, 2), 50_000, seed=1)
    assert batch.eigenvalues.min() > 0.0
    assert batch.eigenvalues.max() < 1.0


def test_gue_pair_mean_is_zero():
    batch = sample(GUE(2), 200_000, seed=21)
    mean, se = empirical_moment(batch, lambda row: row.sum())
    assert abs(mean) < 4.0 * se


def test_empirical_cdf_edges_and_median():
    batch = sample(UncorrelatedWishart(1, 1), 100_000, seed=2)
    lo = float(batch.eigenvalues.min())
    hi = float(batch.eigenvalues.max())
    stat = empirical_cdf(batch, 1, [lo / 2.0, math.log(2.0), hi * 2.0])
    assert stat.values[0] == 0.0
    assert stat.values[2] == 1.0
    assert stat.values[1] == pytest.approx(0.5, abs=0.01)  # exponential median
    assert all(s > 0 for s in stat.stderr)


def test_empirical_cdf_rank_validated():
    batch = sample(GUE(2), 100, seed=0)
    with pytest.raises(ValueError):
        empirical_cdf(batch, 3, [0.0])


def test_compare_exact_match_is_zero():
    xs = (0.0, 1.0, 2.0)
    emp = EmpiricalStat("cdf", (1,), xs, (0.1, 0.5, 0.9), (0.01, 0.01, 0.01), 1000)
    ana = CurveGrid(xs, (0.1, 0.5, 0.9), {"statistic": "cdf"})
    report = compare(ana, emp)
    assert report.max_deviation == 0.0
    assert report.passed


def test_compare_flags_constructed_failure():
    xs = (0.0, 1.0, 2.0)
    emp = EmpiricalStat("cdf", (1,), xs, (0.1, 0.5, 0.9), (0.01, 0.01, 0.01), 1000)
    ana = CurveGrid(xs, (0.1, 0.6, 0.9), {"statistic": "cdf"})  # 10 sigma off at x=1
    report = compare(ana, emp)
    assert not report.passed
    assert report.max_deviation == pytest.approx(10.0)
    assert report.worst_x == 1.0


def test_compare_grid_mismatch():
    emp = EmpiricalStat("cdf", (1,), (0.0, 1.0), (0.1, 0.9), (0.01, 0.01), 100)
    ana = CurveGrid((0.0, 2.0), (0.1, 0.9), {})
    with pytest.raises(ValueError, match="grids differ"):
        compare(ana, emp)


def test_mc_gate_end_to_end_small():
    model = UncorrelatedWishart(2, 2)
    batch = sample(model, 150_000, seed=7)
    grid = np.unique(np.quantile(batch.eigenvalues[:, 0], np.linspace(0.02, 0.98, 11)))
    emp = empirical_cdf(batch, 1, grid)
    ana = curve(model, "cdf", grid, index=1)
    assert compare(ana, emp).passed


@pytest.mark.parametrize(
    "model",
    [
        Beta(2, 1, 2),
        CorrelatedWishart(2, 3, (2.0, 1.0), (1, 2)),
        CorrelatedWishart(3, 2, (2.0, 1.0), (1, 1)),
    ],
    ids=lambda m: spec_string(m),
)
def test_mc_gate_remaining_ensembles_large(model):
    # the acceptance suite runs the figure models; these close the family
    batch = sample(model, 1_000_000, seed=13)
    for ell in range(1, model.dim + 1):
        col = batch.eigenvalues[:, ell - 1]
        grid = np.unique(np.quantile(col, np.linspace(0.005, 0.995, 17)))
        emp = empirical_cdf(batch, ell, grid)
        ana = curve(model, "cdf", grid, index=ell)
        report = compare(ana, emp)
        assert report.passed, f"ell={ell}: {report.max_deviation:.2f}"


def test_batch_export(tmp_path):
    batch = sample(GUE(2), 50, seed=4)
    csv_path = tmp_path / "eigs.csv"
    npy_path = tmp_path / "eigs.npy"
    batch.to_csv(csv_path)
    batch.to_npy(npy_path)
    loaded = np.load(npy_path)
    assert loaded.shape == (50, 2)
    text = csv_path.read_text()
    assert text.startswith("# gue M=2 count=50 seed=4")
    rows = np.loadtxt(csv_path, delimiter=",")
    assert np.allclose(rows, batch.eigenvalues)


def test_invalid_count():
    with pytest.raises(ValueError):
        sample(GUE(2), 0, seed=1)
