"""The benchmark's span targets and workloads name functions that exist.

``perfbench/spans.py`` wraps package functions by module and attribute name,
and ``perfbench/workloads.py`` imports and calls package functions, so
renaming or retyping one breaks every benchmark run; these tests catch the
change in the test suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(f"grouptensor.{module_name}")
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_span_target_is_an_attribute_of_its_module(monkeypatch):
    spans = _load("spans", monkeypatch)
    assert len(spans.TARGETS) > 0
    missing = [
        f"grouptensor.{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not _resolves(module, attr)
    ]
    assert missing == []


@pytest.mark.parametrize(("name", "item"), [("tensor-indecomposable", "D16"),
                                            ("tensor-products", "C3xS3")])
def test_a_square_workload_matches_its_recorded_values(monkeypatch, name, item):
    # build, run and check one item as a benchmark sample does, at seed 7
    workload = _load("workloads", monkeypatch).WORKLOADS[name]
    assert item in workload.items
    inputs = workload.build(item, 7)
    assert workload.check(item, inputs, workload.run(inputs)) == ([], 1, 0)
