"""Layer spans recorded from outside the program.

``Tracer`` wraps public functions of the grouptensor layers and records one
span per call: name, start, end and the span that caused it, plus optional
counts taken from the call's result.  Spans stay in memory until ``layers``
summarises them.

Modules bind names with ``from .x import y``, so ``tensor.py`` calls its own
reference to ``todd_coxeter``; patching ``coset_enum.todd_coxeter`` alone would
record nothing.  ``install`` therefore replaces every module-level alias of a
wrapped function in every loaded module, the benchmark's own included.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _enumeration_counts(table) -> dict:
    # computed, not counted by the enumerator: final cosets times 2|G|^2 columns
    return {
        "final_cosets": table.coset_count,
        "table_cells": table.coset_count * 2 * table.generator_count,
    }


# (module, attribute, span name, counts taken from the result)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("specs", "group_from_spec", "specs.build", None),
    ("coset_enum", "tensor_square_presentation", "coset_enum.presentation",
     lambda p: {"relators": len(p.relators)}),
    ("coset_enum", "todd_coxeter", "coset_enum.enumerate", _enumeration_counts),
    ("coset_enum", "_verify_table", "coset_enum.verify_table", None),
    ("tensor", "tensor_square", "tensor.square", None),
    ("tensor", "tensor_upper_central", "tensor.upper_central", None),
    ("degrees", "rel_n_tensor_degree", "degrees.dp", None),
    ("groups", "all_subgroups", "groups.subgroups", None),
    ("groups", "quotient", "groups.quotient", None),
    ("verify", "evaluate_entry", "verify.eval", lambda checks: {"checks": len(checks)}),
    ("verify", "VerificationReport.to_json", "verify.render", None),
)
SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and every module-level alias of it, in any module."""
        modules = list(sys.modules.values())
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[f"grouptensor.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), name, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder: object, key: str, value: object) -> None:
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds and summed counts.

        Self time is a span's duration minus the durations of its direct
        children; spans of one name never nest, so totals do not double count.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            for name in SPAN_NAMES
        }
        for span, children in zip(self.spans, child_time):
            entry = out[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - children
            for key, value in span.counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return out
