"""End-to-end benchmark of the eigendist library.

Run from the repository root:

    python3 perfbench/run.py --workload pdf_grid --seed 1 --seconds 22 --trace 0

One process drives the library's public API as a closed loop with a single
caller: each call waits for the previous one.  Inputs come from ``--seed``;
the library is imported from ``src/`` next to this directory, never from an
installed copy.  Every result is checked against an independent reference
after the timed loop.

``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
interpreters), throughput, median and tail call latency, the share of calls
that passed their checks, the digits of the worst check, peak memory and
the largest dimension ``pdf_single`` serves.  Set-up time, throughput and
latency are scaled to a fixed machine speed: a reference computation that
uses numpy, scipy and Python but none of the library is timed between the
calls of the timed loop, and the times next to it are scaled by how far it
ran from its nominal time.  The unscaled figures are in the details.

``--trace 1`` instead runs a fixed batch of rounds plain, traced and plain
again, and prints per-layer metrics; the batch does not depend on
``--seconds``, so its counts repeat exactly for one seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, tail percentile, per-check residuals).
The exit code is 1 when any reference check failed and 2 when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pdf_grid", "cdf_quad", "unordered_exact", "mc_oracle")
# fresh interpreters timed before and again after the timed loop, so that the
# median spans the slow drift in machine speed over the run
SETUP_PROBES = 2
# rounds of the traced batch, sized to a few seconds each
TRACE_ROUNDS = {"pdf_grid": 12, "cdf_quad": 2, "unordered_exact": 12, "mc_oracle": 2}
# max_dim: UncorrelatedWishart(M, M+2) up the ladder while pdf_single at the
# median rank returns within the budget and the model stays normalized
DIM_LADDER = (4, 6, 8, 9, 10, 12, 16, 24, 32, 48, 64)
DIM_BUDGET_S = 2.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10
# On a shared host each core switches between a fast and a slow speed,
# about 1.5x apart, several times a second, and the share of time spent
# slow drifts over minutes.  The reference probe moves with the library's
# calls.  The timed loop runs the probe after every window of at least
# PROBE_WINDOW_S of calls and divides the window's times by the slowdown
# (mean probe time over PROBE_NOMINAL_S) of the probes that ran within
# PROBE_SPAN_S of it: enough probes to average over the fast and slow
# spells a long call lives through, few enough to follow the drift.
# Set-up times are divided by the mean slowdown of the
# timed loop, since each fresh interpreter runs for longer than the speed
# stays put.  The nominal time is about the probe's time on the slow speed
# of the 2-core Xeon (Sapphire Rapids) VM the baseline was measured on.
PROBE_WINDOW_S = 0.05
PROBE_SPAN_S = 1.0
PROBE_NOMINAL_S = 3.4e-3


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_blas_threads() -> None:
    """Single-threaded BLAS unless set; never more threads than cores."""
    nproc = _nproc()
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(min(max(wanted, 1), nproc))


def _import_library():
    if not (SRC / "eigendist" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import eigendist

    if Path(eigendist.__file__).resolve().parent != (SRC / "eigendist").resolve():
        print(f"error: eigendist imported from {eigendist.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return eigendist


# ---------------------------------------------------------------------------
# machine-speed probe
# ---------------------------------------------------------------------------


class SpeedProbe:
    """A fixed computation in the mix of the library's layers: scalar Python
    special functions, small scipy and numpy calls, stacked determinants
    and batched ``eigvalsh``.  Nothing in it calls the library, so a change
    to the library moves it only through the cache state it leaves."""

    def __init__(self) -> None:
        import numpy as np
        from scipy import special

        self._np, self._gammaln = np, special.gammaln
        self._dets = np.random.default_rng(0).standard_normal((24, 7, 7))
        self._xs = np.linspace(0.1, 20.0, 16)
        self.samples = []

    def sample(self) -> float:
        np = self._np
        t = time.perf_counter()
        s = 0.0
        for i in range(400):
            s += math.lgamma(1.5 + i) * math.exp(-0.01 * i) + math.log1p(i)
        for i in range(40):
            s += float(self._gammaln(self._xs[i % 16])) + float(np.sum(self._xs * i))
        s += float(np.sum(np.linalg.det(self._dets)))
        g = np.random.default_rng(1).standard_normal((300, 8, 8))
        s += float(np.sum(np.linalg.eigvalsh(g + g.transpose(0, 2, 1))))
        elapsed = time.perf_counter() - t
        if not math.isfinite(s):
            raise RuntimeError("speed probe produced a non-finite sum")
        self.samples.append(elapsed)
        return elapsed


# ---------------------------------------------------------------------------
# running rounds
# ---------------------------------------------------------------------------


class Pass:
    """Calls, latencies and results of one pass over a workload's rounds."""

    def __init__(self) -> None:
        self.raw_latencies = []
        self.latencies = []  # scaled by the speed probe when there is one
        self.values = 0
        self.groups = []  # (group, results, error)
        self.rounds = 0
        self.wall = 0.0  # loop time, probes excluded
        self.scaled_wall = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(results) for _group, results, _error in self.groups)


def run_pass(workload, cold, seconds=None, rounds=None, probe=None) -> Pass:
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done.

    With a ``probe``, the calls are split into windows of at least
    PROBE_WINDOW_S, the probe runs before the first window and after each
    one, and each window's times are divided by the mean slowdown of the
    probes that ran within PROBE_SPAN_S of it."""
    out = Pass()
    clock = time.perf_counter
    probes = []  # (end time, probe time)
    windows = []  # (start, end, latencies)

    def run_probe() -> None:
        if probe is not None:
            probes.append((clock(), probe.sample()))

    run_probe()
    start = window_start = clock()
    latencies = []

    def close_window() -> None:
        nonlocal window_start, latencies
        windows.append((window_start, clock(), latencies))
        run_probe()
        latencies, window_start = [], clock()

    for index, round_groups in enumerate(workload.rounds()):
        for group in round_groups:
            if group.cold:
                cold.clear()
            results, error = [], None
            for call in group.calls:
                t = clock()
                try:
                    results.append(call.fn())
                    out.values += call.values
                except Exception as exc:  # a failed call is counted, not fatal
                    results.append(None)
                    error = error or f"{type(exc).__name__}: {exc}"
                latencies.append(clock() - t)
            out.groups.append((group, results, error))
            if probe is not None and clock() - window_start >= PROBE_WINDOW_S:
                close_window()
        out.rounds = index + 1
        if rounds is not None and out.rounds >= rounds:
            break
        if seconds is not None and clock() - start >= seconds:
            break
    close_window()
    first = 0
    for begin, end, window in windows:
        while probes and probes[first][0] < begin - PROBE_SPAN_S:
            first += 1
        near = [t for at, t in itertools.takewhile(lambda p: p[0] <= end + PROBE_SPAN_S, probes[first:])]
        factor = statistics.fmean(near) / PROBE_NOMINAL_S if near else 1.0
        out.wall += end - begin
        out.scaled_wall += (end - begin) / factor
        out.raw_latencies += window
        out.latencies += [t / factor for t in window]
    return out


def check_pass(run: Pass):
    """Run the reference checks; returns (failed calls, per-check summary)."""
    from workloads import Check

    failed = 0
    summary = {}
    for group, results, error in run.groups:
        if error is not None:
            checks = [Check("call_raised", False)]
        else:
            try:
                checks = group.check(results)
            except Exception as exc:
                checks = [Check(f"check_raised:{type(exc).__name__}", False)]
        if not all(c.passed or not c.gate for c in checks):
            failed += len(results)
        for c in checks:
            entry = summary.setdefault(c.name, {"count": 0, "failed": 0})
            entry["count"] += 1
            entry["failed"] += 0 if c.passed else 1
            if c.residual is not None and c.residual >= entry.get("worst_residual", -1.0):
                entry["worst_residual"] = c.residual
                if c.value is not None:
                    entry["worst_value"] = c.value
        if error is not None:
            summary["call_raised"].setdefault("first_error", error)
    return failed, summary


def accuracy_digits(summary: dict) -> float:
    worst = max((e["worst_residual"] for e in summary.values() if "worst_residual" in e), default=0.0)
    return -math.log10(max(worst, 1e-16))


def latency_stats(latencies) -> dict:
    """Median and the highest percentile with at least TAIL_BEYOND samples
    beyond it (the max when there are too few samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail, pct = ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {"p50_ms": 1e3 * statistics.median(ordered), "tail_ms": 1e3 * tail, "tail_percentile": pct, "samples": n}


def max_dim(eigendist, gate_tol: float):
    from eigendist import distributions, ensembles

    best, steps = 0, []
    for m in DIM_LADDER:
        model = eigendist.UncorrelatedWishart(m, m + 2)
        t = time.perf_counter()
        try:
            value = distributions.pdf_single(model, (m + 1) // 2, float(m + 2))
            elapsed = time.perf_counter() - t
            norm = ensembles.normalization_check(model)
        except Exception as exc:
            steps.append({"M": m, "error": type(exc).__name__})
            break
        ok = elapsed <= DIM_BUDGET_S and math.isfinite(value) and value > 0 and abs(norm - 1.0) <= gate_tol
        steps.append({"M": m, "seconds": elapsed, "normalization_minus_1": norm - 1.0, "ok": ok})
        if not ok:
            break
        best = m
    return best, steps


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters up to the first result
# ---------------------------------------------------------------------------


def probe_setup(args) -> int:
    _import_library()
    import workloads

    group = next(workloads.make(args.workload, args.seed).rounds())[0]
    group.calls[0].fn()
    return 0


def measure_setup(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t)
    return times


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "EIGENDIST_THREADS": os.environ.get("EIGENDIST_THREADS", "1"),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(args, eigendist, workloads) -> tuple:
    import_rss_mb = _max_rss_mb()
    setup = measure_setup(args)
    cold = workloads.ColdStart()
    # warm up lazy imports on other inputs, then start from empty caches
    warm_up = next(workloads.make(args.workload, args.seed + 1).rounds())[0]
    for call in warm_up.calls:
        call.fn()
    cold.reset()
    probe = SpeedProbe()
    for _ in range(20):  # warm the probe's own code paths
        probe.sample()
    probe.samples.clear()
    run = run_pass(workloads.make(args.workload, args.seed), cold, seconds=args.seconds, probe=probe)
    # peak memory of the workload alone, before the checks and the ladder
    peak_rss_mb = _max_rss_mb()
    setup += measure_setup(args)
    slowdown = run.wall / run.scaled_wall
    failed, summary = check_pass(run)
    best, steps = max_dim(eigendist, workloads.GATE_TOL)
    lat = latency_stats(run.latencies)
    raw = latency_stats(run.raw_latencies)
    attempted = run.attempted
    metrics = {
        "setup_s": _metric(statistics.median(setup) / slowdown, "s"),
        "ops_per_s": _metric(run.values / run.scaled_wall, "1/s"),
        "call_p50_ms": _metric(lat["p50_ms"], "ms"),
        "call_tail_ms": _metric(lat["tail_ms"], "ms"),
        "pass_ratio": _metric((attempted - failed) / attempted, "ratio"),
        "accuracy_digits": _metric(accuracy_digits(summary), "digits"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "max_dim": _metric(best, "dim"),
    }
    detail = {
        "setup_runs_s": setup,
        "ops_unit": workloads.WORKLOADS[args.workload].unit,
        "values": run.values,
        "wall_s": run.wall,
        "rounds": run.rounds,
        "latency": lat,
        "unscaled": {
            "setup_s": statistics.median(setup),
            "ops_per_s": run.values / run.wall,
            "p50_ms": raw["p50_ms"],
            "tail_ms": raw["tail_ms"],
        },
        "speed_probe": {
            "nominal_s": PROBE_NOMINAL_S,
            "window_s": PROBE_WINDOW_S,
            "samples": len(probe.samples),
            "quartiles_s": statistics.quantiles(probe.samples, n=4),
            "mean_slowdown": slowdown,
        },
        "fail_ratio": failed / attempted,
        "peak_rss_after_imports_mb": import_rss_mb,
        "checks": summary,
        "max_dim": {"ladder": DIM_LADDER, "budget_s": DIM_BUDGET_S, "steps": steps},
    }
    return attempted, failed, metrics, detail


def run_traced(args, eigendist, workloads) -> tuple:
    import tracer as tracing

    rounds = TRACE_ROUNDS[args.workload]
    cold = workloads.ColdStart()

    def plain_wall() -> float:
        cold.reset()
        return run_pass(workloads.make(args.workload, args.seed), cold, rounds=rounds).wall

    # plain passes on both sides of the traced one, so that drift in machine
    # speed does not pass for tracing overhead
    before = plain_wall()
    tracer = tracing.Tracer()
    workload = workloads.make(args.workload, args.seed)
    cold.reset()
    tracer.install()
    try:
        traced = run_pass(workload, cold, rounds=rounds)
    finally:
        tracer.uninstall()
    misses = cold.kernel_misses()
    after = plain_wall()
    failed, summary = check_pass(traced)
    layer = tracer.metrics(traced.wall, traced.values, misses)
    layer["trace_overhead_ratio"] = (2.0 * traced.wall / (before + after), "ratio")
    metrics = {name: _metric(value, unit) for name, (value, unit) in layer.items()}
    from eigendist import pseudodet

    threshold = getattr(pseudodet, "_CHUNK", None)
    detail = {
        "rounds": rounds,
        "values": traced.values,
        "plain_wall_s": [before, after],
        "pool_threshold": threshold,
        "max_reps_exceeds_pool_threshold": threshold is not None and tracer.max_reps > threshold,
        "self_share": {
            name[: -len(".self_s")]: value / traced.wall
            for name, (value, _unit) in layer.items()
            if name.endswith(".self_s")
        },
        "checks": summary,
    }
    return traced.attempted, failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    if args.probe_setup:
        return probe_setup(args)
    eigendist = _import_library()
    import workloads

    runner = run_traced if args.trace else run_end_to_end
    attempted, failed, metrics, detail = runner(args, eigendist, workloads)
    detail = {"workload": args.workload, "seed": args.seed, "environment": environment(), **detail}
    print(json.dumps({"detail": detail}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
