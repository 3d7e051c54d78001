"""Measure the benchmark's baseline and write it as JSON.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For every workload this makes ``SETS`` sets of ``SEEDS`` untraced runs, one
run per seed, and reports each end-to-end metric's median, quartiles and
spread (the distance between the quartiles as a share of the median) per set.
``out_of_bounds`` lists every spread above its metric's bound and every set
whose median is worse than the first set's by more than the bound.  It then
makes one traced run per workload for the per-layer table.  Seeds of set k
are ``k * 100 + 1 ... k * 100 + SEEDS``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2

# Counters that need instrumentation inside the enumerator; no span from
# outside can see them.
NOT_YET_MEASURED = {
    "coset_enum.cosets_defined": "cosets defined during enumeration, dead ones included",
    "coset_enum.peak_live_cosets": "largest number of live cosets at any point",
    "coset_enum.coincidences": "coincidences processed",
    "coset_enum.hlt_overshoot": "cosets defined divided by the final index",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first: float, later: float, better: str) -> float:
    """Share of ``first`` by which ``later`` is worse."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        sets = []
        for k in range(1, SETS + 1):
            # run() stops on a failed or incorrect run, so every result here is correct
            results = [run(name, k * 100 + s, seconds, 0) for s in range(1, SEEDS + 1)]
            sets.append({m: summary([r["metrics"][m]["value"] for r in results]) for m in metrics})
            print(name, k, json.dumps(sets[-1]), flush=True)
        traced = run(name, 1, seconds, 1)
        workloads[name] = {
            "sets": sets,
            "out_of_bounds": [
                f"set {k} {m} {what} {value:.3f} > {metrics[m]['bound']}"
                for k, s in enumerate(sets, 1) for m in metrics
                for what, value in (
                    ("spread", s[m]["spread"]),
                    ("worse_by", worse_by(sets[0][m]["median"], s[m]["median"], metrics[m]["better"])),
                )
                if value > metrics[m]["bound"]
            ],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds_per_set": SEEDS,
        "workloads": workloads,
        "not_yet_measured": NOT_YET_MEASURED,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
