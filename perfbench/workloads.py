"""The benchmark's workloads: inputs from a seed, the timed part, and the check.

A workload is a tuple of items; a timed sample runs one item in a fresh
interpreter.  ``build(item, seed)`` makes the item's inputs (set-up),
``run(inputs)`` is the timed part, and ``check(item, inputs, outputs)``
compares label-invariant facts with the values recorded at seed and returns
``(errors, attempted, failed)``.  ``outputs`` is the exception when ``run``
raised one.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, NamedTuple

from grouptensor.degrees import format_fraction, tensor_degree
from grouptensor.groups import relabeled
from grouptensor.specs import group_from_spec
from grouptensor.tensor import j2_order, tensor_center, tensor_class, tensor_square
from grouptensor.verify import Config, builtin_corpus, run_suite

SUITE_CONFIG = Config(max_order=24)
SUITE_REPORT_SHA256 = "0039a9e302c7b844fab08832d2f2dc7b255fabd7485535534c248aa50d3fdeee"
SUITE_SUMMARY = {"pass": 4587, "fail": 323, "skipped": 0, "flagged": 1}

# |G (x) G|, |J2(G)|, |Z-tensor(G)|, tensor class, d-tensor(G), recorded at seed.
# All are invariant under relabelling and factor order.
INDECOMPOSABLE = {
    "D16": (64, 16, 1, 4, "1/4"),
    "Q16": (64, 16, 1, 4, "1/4"),
    "S4": (48, 4, 1, None, "13/96"),
    "D24": (96, 16, 1, None, "11/48"),
    "D32": (128, 16, 1, 5, "7/32"),
}
PRODUCTS = {
    "C2xD8": (1024, 512, 1, 3, "11/64"),
    "S3xS3": (144, 16, 1, None, "23/144"),
    "C2xA4": (48, 12, 1, None, "13/96"),
    "C3xS3": (18, 6, 1, None, "25/108"),
}


class Workload(NamedTuple):
    items: tuple[str, ...]
    build: Callable
    run: Callable
    check: Callable


def _suite_build(item: str, seed: int) -> list:
    # run_suite sorts its records, so the corpus order must not change the report
    corpus = builtin_corpus(SUITE_CONFIG.max_order)
    random.Random(seed).shuffle(corpus)
    return corpus


def _suite_run(corpus: list) -> str:
    return run_suite(corpus, "all", SUITE_CONFIG).to_json()


def _suite_check(item: str, corpus: list, text) -> tuple[list[str], int, int]:
    attempted = sum(SUITE_SUMMARY.values())
    if isinstance(text, Exception):
        return [f"suite raised {text!r}"], attempted, attempted
    doc = json.loads(text)
    failed = sum(
        1 for rec in doc["checks"]
        if rec.get("skipped") and str(rec.get("note", "")).startswith("exceeded-limit")
    )
    errors = []
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != SUITE_REPORT_SHA256:
        errors.append(f"report sha256 {digest} != {SUITE_REPORT_SHA256}")
    if doc["summary"] != SUITE_SUMMARY:
        errors.append(f"summary {doc['summary']} != {SUITE_SUMMARY}")
    return errors, len(doc["checks"]), failed


def _relabelled(spec: str, seed: int):
    group = group_from_spec(spec)
    rest = list(range(1, group.order))
    random.Random(f"{seed}:{spec}").shuffle(rest)
    return relabeled(group, [0] + rest)


def _reordered(spec: str, seed: int):
    factors = spec.split("x")
    random.Random(f"{seed}:{spec}").shuffle(factors)
    return group_from_spec("x".join(factors))


def _square(group):
    # looked up at call time, so a tracer that replaces the module's alias sees it
    return tensor_square(group)


def _square_check(expected: dict) -> Callable:
    def check(spec: str, group, data) -> tuple[list[str], int, int]:
        if isinstance(data, Exception):  # LimitError or any other error: a failed operation
            return [f"{spec} ({group.name}): {data!r}"], 1, 1
        got = (
            data.order,
            j2_order(group, data),
            tensor_center(group, data).order,
            tensor_class(group, data),
            format_fraction(tensor_degree(group, data)),
        )
        errors = [] if got == expected[spec] else [f"{spec} ({group.name}): {got} != {expected[spec]}"]
        return errors, 1, 0

    return check


WORKLOADS = {
    "suite": Workload(("suite",), _suite_build, _suite_run, _suite_check),
    "tensor-indecomposable": Workload(
        tuple(INDECOMPOSABLE), _relabelled, _square, _square_check(INDECOMPOSABLE)
    ),
    "tensor-products": Workload(
        tuple(PRODUCTS), _reordered, _square, _square_check(PRODUCTS)
    ),
}
