"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import grouptensor  # noqa: E402
from grouptensor import coset_enum, tensor  # noqa: E402
from grouptensor.specs import group_from_spec  # noqa: E402

import workloads  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402


def test_tracer_replaces_every_alias_and_restores_them():
    original = coset_enum.todd_coxeter
    tracer = Tracer()
    tracer.install()
    try:
        assert tensor.todd_coxeter is coset_enum.todd_coxeter is grouptensor.todd_coxeter
        assert tensor.todd_coxeter is not original
        assert workloads.tensor_square is tensor.tensor_square
        tensor._tensor_cache.clear()  # the cache is process-global
        workloads.WORKLOADS["tensor-products"].run(group_from_spec("C3xS3"))
    finally:
        tracer.uninstall()
    assert coset_enum.todd_coxeter is original and tensor.todd_coxeter is original
    layers = tracer.layers()
    assert layers["tensor.square"]["calls"] == 1
    assert layers["coset_enum.enumerate"]["calls"] == 1
    assert layers["coset_enum.enumerate"]["counts"]["final_cosets"] == 18


def test_every_span_fires_on_suite_and_the_traced_report_is_unchanged():
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "suite", "suite", "1", "trace"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    # the suite check compares the report's sha256 with the untraced one pinned at seed
    assert result["errors"] == [] and result["failed"] == 0
    layers = result["layers"]
    assert [name for name in SPAN_NAMES if layers[name]["calls"] == 0] == []
    assert layers["tensor.square"]["calls"] == 341
    assert layers["coset_enum.enumerate"]["calls"] == 32


def test_correctness_gate_rejects_a_wrong_recorded_value():
    check = workloads._square_check({"C3xS3": (18, 6, 1, None, "1/2")})
    group = group_from_spec("S3xC3")
    errors, attempted, failed = check("C3xS3", group, workloads._square(group))
    assert len(errors) == 1 and attempted == 1 and failed == 0


def test_fails_without_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=150, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
