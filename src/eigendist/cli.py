"""Command-line front end: curves, probabilities, moments, and validation
reports as CSV, plus the bundled figure datasets."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import distributions as dist
from . import montecarlo as mc
from .ensembles import EnsembleModel, kernel_form, parse_spec, spec_string
from .errors import CapabilityError, InvalidModelError, NumericError

_EXIT_OK = 0
_EXIT_GATE_FAILED = 1
_EXIT_USAGE = 2
_EXIT_CAPABILITY = 3
_EXIT_NUMERIC = 4

# ensemble flags and their help; each one sets the spec key of its name
_ENSEMBLE_FLAGS = {
    "M": "number of random eigenvalues",
    "n": "degrees of freedom / weight exponent",
    "p": "quadratic-form row dimension (correlated)",
    "phi": "comma list of distinct inverse-covariance eigenvalues",
    "mult": "comma list of multiplicities matching --phi",
    "sigma1": "spiked covariance eigenvalue",
    "sigma2": "bulk covariance eigenvalue",
    "mu": "comma list of noncentrality eigenvalues",
    "m": "beta weight exponent",
}


def _add_ensemble_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ensemble", required=True, help="ensemble name, e.g. uncorrelated-wishart")
    for key, about in _ENSEMBLE_FLAGS.items():
        sub.add_argument(f"--{key}", help=about)


def _model_from_args(args: argparse.Namespace) -> EnsembleModel:
    pairs = [f"{key}={getattr(args, key)}" for key in _ENSEMBLE_FLAGS if getattr(args, key) is not None]
    return parse_spec(" ".join([args.ensemble, *pairs]))


def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:count, got {raw!r}")
    lo, hi = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if not lo < hi:
        raise ValueError(f"grid bounds must satisfy lo < hi, got {raw!r}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"grid bounds must be finite with a finite span, got {raw!r}")
    return np.linspace(lo, hi, count)


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.split(",")]


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",")]


@contextlib.contextmanager
def _output(path):
    """The file at ``path`` opened for writing and closed on exit, or stdout
    for no path or ``-``."""
    if path in (None, "-"):
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _emit_curve(grid_curve: dist.CurveGrid, out) -> None:
    with _output(out) as fh:
        grid_curve.write_csv(fh)


def _write_surface(fh, model, ell, s, grid1, grid2) -> None:
    values = dist.pdf_pair_grid(model, ell, s, grid1, grid2)
    fh.write(f"# ensemble={spec_string(model)} statistic=joint-pdf indices={ell},{s}\n")
    for x1, row in zip(grid1, values):
        for x2, v in zip(grid2, row):
            fh.write(f"{x1:.17g},{x2:.17g},{v:.17g}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_curve(args) -> int:
    model = _model_from_args(args)
    grid = _parse_grid(args.grid)
    _emit_curve(dist.curve(model, args.statistic, grid, index=args.index), args.out)
    return _EXIT_OK


def _cmd_unordered_pdf(args) -> int:
    model = _model_from_args(args)
    if args.at is not None:
        xs = _float_list(args.at)
        value = dist.joint_pdf_unordered(model, len(xs), xs)
        print(f"{value:.17g}")
        return _EXIT_OK
    if args.grid is None:
        raise ValueError("unordered-pdf needs either --grid or --at")
    grid = _parse_grid(args.grid)
    _emit_curve(dist.curve(model, "unordered-pdf", grid), args.out)
    return _EXIT_OK


def _cmd_joint_pdf(args) -> int:
    model = _model_from_args(args)
    indices = _int_list(args.indices)
    if args.at is not None:
        xs = _float_list(args.at)
        value = dist.joint_pdf_ordered(model, indices, xs)
        print(f"{value:.17g}")
        return _EXIT_OK
    if len(indices) != 2:
        raise ValueError("grid output is only available for pairs; use --at for other subsets")
    if args.grid is None:
        raise ValueError("joint-pdf needs either --grid or --at")
    grid1 = _parse_grid(args.grid)
    grid2 = _parse_grid(args.grid2) if args.grid2 else grid1
    with _output(args.out) as fh:
        _write_surface(fh, model, indices[0], indices[1], grid1, grid2)
    return _EXIT_OK


def _cmd_prob_interval(args) -> int:
    model = _model_from_args(args)
    value = dist.prob_all_in(model, args.a, args.b, method=args.method)
    print(f"{value:.17g}")
    return _EXIT_OK


def _cmd_moments(args) -> int:
    model = _model_from_args(args)
    if (args.index is None) == (args.joint_orders is None):
        raise ValueError("moments needs exactly one of --index/--orders or --joint-orders")
    if args.joint_orders is not None:
        orders = _int_list(args.joint_orders)
        value = dist.moments_unordered(model, orders)
        print(f"{value:.17g}")
        return _EXIT_OK
    orders = _int_list(args.orders) if args.orders else [1]
    for order in orders:
        value = dist.moment_single(model, args.index, order)
        print(f"{order},{value:.17g}")
    return _EXIT_OK


def _cmd_mgf(args) -> int:
    model = _model_from_args(args)
    if (args.nu is None) == (args.nus is None):
        raise ValueError("mgf needs exactly one of --nu (ordered) or --nus (joint)")
    if args.nu is not None:
        if args.index is None:
            raise ValueError("--nu needs --index")
        value = dist.mgf_single(model, args.index, args.nu)
    else:
        value = dist.mgf_unordered(model, _float_list(args.nus))
    print(f"{value:.17g}")
    return _EXIT_OK


def _mc_check_one(model, batch, ell, points):
    col = batch.eigenvalues[:, ell - 1]
    grid = np.unique(np.quantile(col, np.linspace(0.005, 0.995, points)))
    emp = mc.empirical_cdf(batch, ell, grid)
    ana = dist.curve(model, "cdf", grid, index=ell)
    return mc.compare(ana, emp)


def _cmd_mc_check(args) -> int:
    model = _model_from_args(args)
    batch = mc.sample(model, args.samples, args.seed)
    indices = [args.index] if args.index else range(1, kernel_form(model).m + 1)
    all_passed = True
    for ell in indices:
        report = _mc_check_one(model, batch, ell, args.points)
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"ell={ell} max standardized deviation {report.max_deviation:.3f} "
            f"at x={report.worst_x:.6g} (threshold {report.threshold}) -> {verdict}"
        )
        all_passed &= report.passed
    print("overall:", "PASS" if all_passed else "FAIL")
    return _EXIT_OK if all_passed else _EXIT_GATE_FAILED


_FIGURE_SPECS = [
    ("fig01", "uncorrelated-wishart M=4 n=5", "pdf", "all", (0.0, 20.0)),
    ("fig02", "spiked-wishart M=4 n=5 sigma1=10 sigma2=1", "pdf", "all", (0.0, 100.0)),
    ("fig03", "uncorrelated-wishart M=6 n=10", "pdf", "all", (0.0, 35.0)),
    ("fig04", "spiked-wishart M=6 n=10 sigma1=10 sigma2=1", "pdf", "all", (0.0, 180.0)),
    ("fig05", "gue M=6", "pdf", "all", (-4.0, 4.0)),
    ("fig06", "uncorrelated-wishart M=4 n=5", "joint-pdf", (1, 2), (0.0, 20.0)),
    ("fig07", "uncorrelated-wishart M=4 n=5", "joint-pdf", (1, 3), (0.0, 20.0)),
    ("fig08", "uncorrelated-wishart M=4 n=5", "joint-pdf", (1, 4), (0.0, 20.0)),
    ("fig09", "uncorrelated-wishart M=4 n=5", "joint-pdf", (2, 3), (0.0, 20.0)),
    ("fig10", "uncorrelated-wishart M=4 n=5", "joint-pdf", (2, 4), (0.0, 20.0)),
    ("fig11", "uncorrelated-wishart M=4 n=5", "joint-pdf", (3, 4), (0.0, 20.0)),
]


def _cmd_reproduce_figures(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, spec, statistic, indices, (lo, hi) in _FIGURE_SPECS:
        model = parse_spec(spec)
        path = outdir / f"{name}.csv"
        if statistic == "pdf":
            grid = np.linspace(lo, hi, args.points)
            index_list = list(range(1, kernel_form(model).m + 1))
            with open(path, "w", encoding="utf-8") as fh:
                for ell in index_list:
                    dist.curve(model, "pdf", grid, index=ell).write_csv(fh)
            entry_indices = index_list
        else:
            ell, s = indices
            grid = np.linspace(lo, hi, args.pair_points)
            with open(path, "w", encoding="utf-8") as fh:
                _write_surface(fh, model, ell, s, grid, grid)
            entry_indices = [ell, s]
        manifest.append(
            {
                "figure": name,
                "file": path.name,
                "ensemble": spec_string(model),
                "statistic": statistic,
                "indices": entry_indices,
                "grid": [lo, hi],
            }
        )
        print(f"wrote {path}")
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {outdir / 'manifest.json'}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigendist",
        description="Exact eigenvalue distributions of finite random matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for statistic, about in (("pdf", "marginal density"), ("cdf", "distribution function")):
        p = sub.add_parser(statistic, help=f"{about} of one ordered eigenvalue")
        _add_ensemble_flags(p)
        p.add_argument("--index", type=int, required=True)
        p.add_argument("--grid", required=True, help="lo:hi:count, endpoints inclusive")
        p.add_argument("-o", "--out", default=None)
        p.set_defaults(fn=_cmd_curve, statistic=statistic)

    p = sub.add_parser("joint-pdf", help="joint density of a subset of ordered eigenvalues")
    _add_ensemble_flags(p)
    p.add_argument("--indices", required=True, help="comma list, e.g. 1,2")
    p.add_argument("--grid", default=None, help="pair surface grid lo:hi:count")
    p.add_argument("--grid2", default=None, help="second-axis grid (defaults to --grid)")
    p.add_argument("--at", default=None, help="comma list of abscissae for a point value")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=_cmd_joint_pdf)

    p = sub.add_parser("unordered-pdf", help="exchangeable joint density of a subset")
    _add_ensemble_flags(p)
    p.add_argument("--grid", default=None, help="single-eigenvalue curve grid")
    p.add_argument("--at", default=None, help="comma list of abscissae")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=_cmd_unordered_pdf)

    p = sub.add_parser("prob-interval", help="probability that all eigenvalues lie in [a, b]")
    _add_ensemble_flags(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--method", choices=("auto", "determinant", "tensor"), default="auto")
    p.set_defaults(fn=_cmd_prob_interval)

    p = sub.add_parser("moments", help="eigenvalue moments, ordered or joint unordered")
    _add_ensemble_flags(p)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--orders", default=None, help="comma list of orders for --index")
    p.add_argument("--joint-orders", default=None, help="comma list, one order per eigenvalue")
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("mgf", help="moment generating function")
    _add_ensemble_flags(p)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--nus", default=None, help="comma list, one exponent per eigenvalue")
    p.set_defaults(fn=_cmd_mgf)

    p = sub.add_parser("mc-check", help="validate analytic marginals against Monte Carlo")
    _add_ensemble_flags(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index", type=int, default=None, help="check one rank only")
    p.add_argument("--points", type=int, default=25)
    p.set_defaults(fn=_cmd_mc_check)

    p = sub.add_parser("reproduce-figures", help="emit the bundled figure datasets")
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--pair-points", type=int, default=40)
    p.set_defaults(fn=_cmd_reproduce_figures)

    return parser


# flags whose value may start with "-": the numeric ones and every ensemble flag
_NUMERIC_FLAGS = {"--a", "--b", "--nu", "--nus", "--at", "--grid", "--grid2", *(f"--{k}" for k in _ENSEMBLE_FLAGS)}


def _fold_numeric_flags(argv):
    """Rewrite ``--a -1e6`` as ``--a=-1e6`` so negative values parse."""
    out = []
    skip = False
    for idx, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _NUMERIC_FLAGS and idx + 1 < len(argv):
            out.append(f"{tok}={argv[idx + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_fold_numeric_flags(list(argv)))
    try:
        return args.fn(args)
    except (InvalidModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CAPABILITY
    except (NumericError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
