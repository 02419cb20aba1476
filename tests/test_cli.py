"""Command-line interface: outputs, formats, and exit codes."""

import json
import math

import pytest

from eigendist import (
    GUE,
    Beta,
    CorrelatedWishart,
    NoncentralWishart,
    SpikedWishart,
    UncorrelatedWishart,
    prob_all_in,
    spec_string,
)
from eigendist.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pdf_curve_row_count(tmp_path, capsys):
    out = tmp_path / "pdf.csv"
    code, _, _ = run(
        capsys,
        "pdf",
        "--ensemble", "uncorrelated-wishart",
        "--M", "4", "--n", "5",
        "--index", "1",
        "--grid", "0:20:400",
        "-o", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# ensemble=uncorrelated-wishart M=4 n=5")
    assert len(lines) == 401
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(last[0]) == 20.0


def test_pdf_to_stdout(capsys):
    code, out, _ = run(
        capsys,
        "pdf",
        "--ensemble", "gue", "--M", "2",
        "--index", "1", "--grid", "-2:2:5",
    )
    assert code == 0
    assert out.count("\n") == 6


def test_prob_interval_prints_one(capsys):
    code, out, _ = run(
        capsys,
        "prob-interval",
        "--ensemble", "gue", "--M", "3",
        "--a", "-1e6", "--b", "1e6",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-8)


def test_joint_pdf_point_value(capsys):
    code, out, _ = run(
        capsys,
        "joint-pdf",
        "--ensemble", "uncorrelated-wishart", "--M", "2", "--n", "2",
        "--indices", "1,2", "--at", "2,1",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.exp(-3.0), rel=1e-10)


def test_joint_pdf_pair_surface(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    code, _, _ = run(
        capsys,
        "joint-pdf",
        "--ensemble", "uncorrelated-wishart", "--M", "2", "--n", "2",
        "--indices", "1,2", "--grid", "0:4:5", "-o", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert "statistic=joint-pdf" in lines[0] and "indices=1,2" in lines[0]
    assert len(lines) == 26  # header + 5x5 grid
    # wedge zeros appear where the second value exceeds the first
    x1, x2, v = (float(t) for t in lines[2].split(","))
    assert (x1, x2) == (0.0, 1.0) and v == 0.0


def test_unordered_pdf_at(capsys):
    code, out, _ = run(
        capsys,
        "unordered-pdf",
        "--ensemble", "uncorrelated-wishart", "--M", "1", "--n", "1",
        "--at", "0.7",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.exp(-0.7), rel=1e-12)


def test_moments_ordered_rows(capsys):
    code, out, _ = run(
        capsys,
        "moments",
        "--ensemble", "uncorrelated-wishart", "--M", "2", "--n", "2",
        "--index", "1", "--orders", "1,2",
    )
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().split("\n"))
    assert float(rows["1"]) == pytest.approx(3.5, rel=1e-7)


def test_moments_joint(capsys):
    code, out, _ = run(
        capsys,
        "moments",
        "--ensemble", "uncorrelated-wishart", "--M", "2", "--n", "2",
        "--joint-orders", "1,1",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(2.0, rel=1e-9)


def test_mgf_joint(capsys):
    code, out, _ = run(
        capsys,
        "mgf",
        "--ensemble", "uncorrelated-wishart", "--M", "2", "--n", "2",
        "--nus", "0,0",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize(
    "flags",
    [
        ("--index", "1", "--nu", "nan"),
        ("--index", "1", "--nu", "-inf"),
        ("--nus", "nan,0"),
        ("--nus", "-inf,0"),
    ],
)
@pytest.mark.parametrize("ensemble", [("uncorrelated-wishart", "--M", "2", "--n", "3"), ("gue", "--M", "2")])
def test_mgf_non_finite_exponent_is_a_usage_error(capsys, ensemble, flags):
    code, out, err = run(capsys, "mgf", "--ensemble", *ensemble, *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: moment generating function exponent must be finite"), err


def test_mc_check_passes_small(capsys):
    code, out, _ = run(
        capsys,
        "mc-check",
        "--ensemble", "uncorrelated-wishart", "--M", "2", "--n", "2",
        "--samples", "60000", "--seed", "7", "--points", "9",
    )
    assert code == 0
    assert "overall: PASS" in out
    assert out.count("-> PASS") == 2


def test_exit_codes():
    assert main(["pdf", "--ensemble", "nope", "--M", "2", "--index", "1", "--grid", "0:1:3"]) == 2
    assert main(
        ["pdf", "--ensemble", "uncorrelated-wishart", "--M", "9", "--n", "12",
         "--index", "1", "--grid", "0:1:3"]
    ) == 3
    assert main(
        ["pdf", "--ensemble", "correlated-wishart", "--p", "4", "--n", "6",
         "--phi", "2.0,1.0", "--mult", "2,3", "--index", "1", "--grid", "0:1:3"]
    ) == 2  # multiplicity sum mismatch
    assert main(
        ["pdf", "--ensemble", "uncorrelated-wishart", "--M", "2", "--n", "2",
         "--index", "1", "--grid", "0:1:1"]
    ) == 2  # degenerate grid
    assert main(
        ["prob-interval", "--ensemble", "beta", "--M", "3", "--m", "1", "--n", "2",
         "--a", "nan", "--b", "0.5"]
    ) == 2  # NaN endpoint
    assert main(
        ["prob-interval", "--ensemble", "noncentral-wishart", "--M", "2", "--n", "3",
         "--mu", "inf", "--a", "0", "--b", "5"]
    ) == 2  # non-finite model parameter
    assert main(
        ["prob-interval", "--ensemble", "spiked-wishart", "--M", "2", "--n", "3",
         "--sigma1", "inf", "--sigma2", "1", "--a", "0", "--b", "5"]
    ) == 2
    assert main(["prob-interval", "--ensemble", "gue", "--M", "2.5", "--a", "0", "--b", "5"]) == 2
    assert main(
        ["prob-interval", "--ensemble", "spiked-wishart", "--M", "2", "--n", "3",
         "--sigma1", "2", "--sigma2", "-1", "--a", "0", "--b", "5"]
    ) == 2  # a negative flag value reaches the model's check


@pytest.mark.parametrize("grid", ["0:inf:10", "-inf:0:3", "-1e308:1e308:3"])
def test_grid_bounds_must_be_finite(capsys, grid):
    # an infinite bound, or a span that overflows, would reach linspace as
    # inf - inf and come back as NaN points
    code, out, err = run(
        capsys,
        "cdf",
        "--ensemble", "uncorrelated-wishart", "--M", "4", "--n", "6",
        "--index", "1", "--grid", grid,
    )
    assert code == 2 and out == ""
    assert err == f"error: grid bounds must be finite with a finite span, got {grid!r}\n"


def test_series_past_the_row_scaling_is_a_numeric_error(capsys):
    code, out, err = run(
        capsys,
        "prob-interval",
        "--ensemble", "noncentral-wishart", "--M", "3", "--n", "4", "--mu", "1000,0.5",
        "--a", "0", "--b", "5",
    )
    assert code == 4 and out == ""
    assert err.startswith("error: NoncentralWishart(dim=3, n=4, mu=(1000.0, 0.5)): the full-support determinant")


def test_stalled_series_is_a_numeric_error(capsys):
    code, out, err = run(
        capsys,
        "moments",
        "--ensemble", "noncentral-wishart", "--M", "3", "--n", "4", "--mu", "700,0.5",
        "--index", "1", "--orders", "1",
    )
    assert code == 4 and out == ""
    assert err.startswith("error: 0F1 series stalled at b=2.0, z=")


def test_grid_endpoints_inclusive(capsys):
    code, out, _ = run(
        capsys,
        "cdf",
        "--ensemble", "uncorrelated-wishart", "--M", "1", "--n", "1",
        "--index", "1", "--grid", "1:3:3",
    )
    assert code == 0
    lines = out.strip().split("\n")[1:]
    xs = [float(l.split(",")[0]) for l in lines]
    assert xs == [1.0, 2.0, 3.0]
    vals = [float(l.split(",")[1]) for l in lines]
    assert vals[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)


def test_reproduce_figures_manifest(tmp_path, capsys):
    outdir = tmp_path / "figs"
    code, out, _ = run(
        capsys,
        "reproduce-figures",
        "--out", str(outdir),
        "--points", "12",
        "--pair-points", "6",
    )
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest) == 11
    by_name = {entry["figure"]: entry for entry in manifest}
    assert by_name["fig01"]["ensemble"] == "uncorrelated-wishart M=4 n=5"
    assert by_name["fig01"]["indices"] == [1, 2, 3, 4]
    assert by_name["fig02"]["ensemble"] == "spiked-wishart M=4 n=5 sigma1=10 sigma2=1"
    assert by_name["fig03"]["ensemble"] == "uncorrelated-wishart M=6 n=10"
    assert by_name["fig04"]["ensemble"] == "spiked-wishart M=6 n=10 sigma1=10 sigma2=1"
    assert by_name["fig05"]["ensemble"] == "gue M=6"
    assert by_name["fig05"]["indices"] == [1, 2, 3, 4, 5, 6]
    pair_figs = [f"fig{k:02d}" for k in range(6, 12)]
    want_pairs = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    for name, pair in zip(pair_figs, want_pairs):
        assert by_name[name]["indices"] == pair
        assert by_name[name]["ensemble"] == "uncorrelated-wishart M=4 n=5"
        assert (outdir / by_name[name]["file"]).exists()
    # multi-curve figure files stack one block per index
    fig1 = (outdir / "fig01.csv").read_text()
    assert fig1.count("# ensemble=") == 4
    assert len(fig1.strip().split("\n")) == 4 * 13


@pytest.mark.parametrize(
    "model",
    [
        UncorrelatedWishart(3, 5),
        CorrelatedWishart(3, 5, (2.5, 1.0), (2, 3)),
        SpikedWishart(3, 4, 6.25, 1.5),
        NoncentralWishart(3, 4, (3.0, 0.5)),
        GUE(3),
        Beta(3, 1, 2),
    ],
    ids=spec_string,
)
def test_every_ensemble_through_the_flags(capsys, model):
    # each key=value of the spec becomes one --key value flag
    name, *pairs = spec_string(model).split()
    flags = ["--ensemble", name]
    for pair in pairs:
        key, _, value = pair.partition("=")
        flags += [f"--{key}", value]
    code, out, _ = run(capsys, "prob-interval", *flags, "--a", "0.5", "--b", "3")
    assert code == 0
    assert out == f"{prob_all_in(model, 0.5, 3):.17g}\n"
