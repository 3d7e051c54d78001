"""grouptensor benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Every sample is a fresh interpreter
(``child.py``), one at a time.  A run times the workload's items (the whole
suite, or one tensor square each) in rounds, largest first, starting a sample
only while it is expected to end within ``--seconds``; every item is timed at
least once.  Every time is scaled to one host speed by a reference loop the
sample times too (``scaled``).  With ``--trace 1`` traced and untraced samples
of every item are both taken; the JSON then holds the per-layer metrics, and
``trace_overhead`` compares the two kinds.

The metric names and units are read from ``BENCHMARK.json``.  Every metric is
printed as ``name value unit``; the last line is one JSON object.  The exit
code is 1 when a sample fails to run or an output is not the recorded one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402  (imports grouptensor)
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
# child.reference_s() on a 2-vCPU shared virtual machine with CPython 3.11.7,
# in its fastest phase.  Times are reported at that host speed.
REFERENCE_S = 0.07


class SampleError(Exception):
    pass


def sample(workload: str, item: str, seed: int, mode: str) -> dict:
    """Run one child; its set-up time counts from just before it is started."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), workload, item, str(seed), mode],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=env,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SampleError(
            f"{mode} sample of {workload} {item} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def scaled(result: dict, key: str) -> float:
    """A sample's time at the host speed where the reference loop takes REFERENCE_S.

    Other load on a shared host slows the whole sample, by up to twice, in
    phases lasting from tens of seconds to minutes; dividing by the reference
    loop timed in the same interpreter takes that out.
    """
    return result[key] * REFERENCE_S / result["reference_s"]


def median_wall(runs: list[dict]) -> float:
    return statistics.median(scaled(r, "wall_s") for r in runs)


def typical(runs: list[dict]) -> dict:
    """The sample with the median scaled wall time, the lower one of an even count."""
    ordered = sorted(runs, key=lambda r: scaled(r, "wall_s"))
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(samples: dict) -> dict[str, float]:
    runs = [rs for (mode, _), rs in samples.items() if mode == "run"]
    every = [r for rs in samples.values() for r in rs]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    return {
        "wall_s": sum(median_wall(rs) for rs in runs),
        # set-up of one item: interpreter start, import and that item's inputs
        "setup_s": statistics.median(scaled(r, "setup_s") for rs in runs for r in rs),
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in rs) for rs in runs),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(traced: list[dict], trace_overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced sample per item, summed over items."""
    layers: dict[str, dict] = {}
    for result in traced:
        speed = REFERENCE_S / result["reference_s"]
        for name, entry in result["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
            total["calls"] += entry["calls"]
            total["total_s"] += entry["total_s"] * speed
            total["self_s"] += entry["self_s"] * speed
            for key, value in entry["counts"].items():
                total["counts"][key] = total["counts"].get(key, 0) + value
    traced_wall_s = sum(scaled(r, "wall_s") for r in traced)
    enum = layers["coset_enum.enumerate"]
    square = layers["tensor.square"]
    return {
        "specs.build_s": layers["specs.build"]["self_s"],
        "coset_enum.presentation_s": layers["coset_enum.presentation"]["self_s"],
        "coset_enum.enumerate_s": enum["self_s"],
        "coset_enum.verify_table_s": layers["coset_enum.verify_table"]["self_s"],
        "coset_enum.enumerate_share": enum["total_s"] / traced_wall_s,
        "coset_enum.enumerations": enum["calls"],
        "coset_enum.final_cosets": enum["counts"].get("final_cosets", 0),
        "coset_enum.table_cells": enum["counts"].get("table_cells", 0),
        "coset_enum.relators": layers["coset_enum.presentation"]["counts"].get("relators", 0),
        "tensor.calls": square["calls"],
        "tensor.cache_hit_ratio": (square["calls"] - enum["calls"]) / max(square["calls"], 1),
        "tensor.extract_s": square["self_s"],
        "tensor.upper_central_s": layers["tensor.upper_central"]["self_s"],
        "degrees.dp_s": layers["degrees.dp"]["self_s"],
        "degrees.dp_calls": layers["degrees.dp"]["calls"],
        "groups.subgroups_s": layers["groups.subgroups"]["self_s"],
        "groups.quotient_s": layers["groups.quotient"]["self_s"],
        "verify.eval_self_s": layers["verify.eval"]["self_s"],
        "verify.checks": layers["verify.eval"]["counts"].get("checks", 0),
        "verify.render_s": layers["verify.render"]["self_s"],
        "trace_overhead": trace_overhead,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list[dict]]:
    """Sample for ``seconds``; returns end-to-end metrics, per-layer metrics, samples."""
    deadline = time.monotonic() + seconds
    modes = ("trace", "run") if trace else ("run",)
    samples: dict[tuple[str, str], list[dict]] = {
        (mode, item): [] for mode in modes for item in WORKLOADS[workload].items
    }

    def due(key: tuple[str, str]) -> bool:
        runs = samples[key]
        return not runs or time.monotonic() + runs[-1]["elapsed_s"] <= deadline

    while any(due(key) for key in samples):
        # largest first, so the items that weigh most get the most samples
        for key in sorted(samples, key=lambda k: -samples[k][-1]["elapsed_s"] if samples[k] else 0):
            if due(key):
                samples[key].append(sample(workload, key[1], seed, key[0]))
    e2e = end_to_end(samples)
    layers = {}
    if trace:
        traced = [rs for (mode, _), rs in samples.items() if mode == "trace"]
        overhead = sum(median_wall(rs) for rs in traced) / e2e["wall_s"]
        layers = per_layer([typical(rs) for rs in traced], overhead)
    return e2e, layers, [r for rs in samples.values() for r in rs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    started = time.monotonic()
    try:
        e2e, layers, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    computed = {**e2e, **layers}
    expected = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    if sorted(computed) != sorted(m["name"] for m in expected):
        print(f"metrics disagree with BENCHMARK.json: {sorted(computed)}", file=sys.stderr)
        return 1

    errors = [e for r in samples for e in r["errors"]]
    for message in errors:
        print(f"MISMATCH {message}")
    print(f"{args.workload} seed {args.seed}: {len(samples)} timed samples, "
          f"{time.monotonic() - started:.1f} s, reference loop median "
          f"{statistics.median(r['reference_s'] for r in samples):.4f} s")
    for name, value in computed.items():
        print(f"{name:28} {value:.6g} {units[name]}")
    reported = layers if args.trace else e2e
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in samples),
        "failed": sum(r["failed"] for r in samples),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
