"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD ITEM SEED MODE

MODE is ``run`` (build ITEM's inputs, time its run and check it) or ``trace``
(the same with layer spans recorded).  A fixed reference loop is timed just
before and just after the timed part.  The last line of standard output is one
JSON object.  The tensor-square cache is process-global, so every sample
starts cold, as a command-line run does.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no grouptensor code.

    Other load on a shared host slows this loop and the workload alike, by up
    to twice, in phases of tens of seconds; ``run.py`` divides every time by it.
    It indexes lists of lists, as the coset enumerator does.
    """
    n = 2000
    table = [[0] * 16 for _ in range(n)]
    start = time.perf_counter()
    for rep in range(20):
        for i in range(n):
            row = table[i * 769 % n]
            for j in range(16):
                row[j] = (row[j] + i * j + rep) & 1023
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    workload, item, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]
    sys.path.insert(0, str(SRC))
    import grouptensor

    if Path(grouptensor.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"grouptensor imported from {grouptensor.__file__}, not {SRC}")
    from spans import Tracer
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    inputs = spec.build(item, seed)
    result: dict = {"ready": time.monotonic()}
    before = reference_s()
    start = time.perf_counter()
    try:
        outputs = spec.run(inputs)
    except Exception as exc:  # a failed operation; check() counts it
        outputs = exc
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["reference_s"] = (before + reference_s()) / 2
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layers()
    errors, attempted, failed = spec.check(item, inputs, outputs)
    result.update(errors=errors, attempted=attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
