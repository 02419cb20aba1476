"""Exact-count self-test of the traced benchmark run.

Runs ``run.py --trace 1`` twice per workload with one seed and requires
every per-layer count to agree exactly between the two runs, and every
reference check to pass.  Counts are a valid basis for a claim only while
this holds.  From the repository root:

    python3 perfbench/selftest.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
# counts the benchmark's claims rest on; every other count is compared too
REQUIRED = (
    "pseudodet.determinants",
    "specfun.calls",
    "ensembles.table_calls",
    "distributions.integrand_evals",
    "montecarlo.draws",
)
WORKLOADS = ("pdf_grid", "cdf_quad", "unordered_exact", "mc_oracle")


def traced_counts(workload: str, seed: int) -> tuple:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    return out.returncode == 0 and result["correct"], counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        correct_a, first = traced_counts(workload, args.seed)
        correct_b, second = traced_counts(workload, args.seed)
        missing = [k for k in REQUIRED if k not in first]
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        passed = correct_a and correct_b and not missing and not differ
        ok &= passed
        detail = ", ".join(f"{k} {first.get(k)} != {second.get(k)}" for k in differ)
        print(
            f"{workload}: {'PASS' if passed else 'FAIL'} "
            f"({len(first)} counts; checks {'passed' if correct_a and correct_b else 'FAILED'}"
            f"{'; missing ' + ', '.join(missing) if missing else ''}{'; ' + detail if detail else ''})"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
