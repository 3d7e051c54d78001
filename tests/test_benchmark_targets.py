"""The benchmark's span targets name functions that exist.

``perfbench/spans.py`` wraps package functions by module and attribute name,
so renaming one breaks every traced benchmark run; this test catches the
rename in the test suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(f"grouptensor.{module_name}")
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_span_target_is_an_attribute_of_its_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert len(spans.TARGETS) > 0
    missing = [
        f"grouptensor.{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not _resolves(module, attr)
    ]
    assert missing == []
