"""Command line front end: group queries, degree computation, suite runs.

Exit codes: 0 for success with no violated checks, 1 when the suite finds a
violated statement (flagged discrepancy records do not count), 2 for usage,
spec, or limit errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from typing import Optional, Sequence

from .coset_enum import DEFAULT_MAX_COSETS
from .degrees import (
    comm_degree,
    format_decimal,
    format_fraction,
    rel_n_tensor_degree,
    tensor_degree,
)
from .errors import GroupTensorError
from .groups import (
    all_subgroups,
    center,
    derived_subgroup,
    full_subgroup,
    nilpotency_class,
)
from .specs import group_from_spec, subgroup_from_words
from .tensor import Squares, j2_order, tensor_center, tensor_class, tensor_square
from .verify import (
    Config,
    builtin_corpus,
    corpus_from_file,
    run_suite,
)


def _degree_line(value) -> str:
    return f"{format_fraction(value)} ({format_decimal(value)})"


def _cmd_info(args: argparse.Namespace) -> int:
    group = group_from_spec(args.spec)
    print(f"group: {group.name}")
    print(f"order: {group.order}")
    print(f"abelian: {'yes' if group.is_abelian() else 'no'}")
    print(f"center order: {center(group).order}")
    print(f"derived subgroup order: {derived_subgroup(group).order}")
    nc = nilpotency_class(group)
    print(f"nilpotency class: {nc if nc is not None else 'none'}")
    print(f"subgroup count: {len(all_subgroups(group))}")
    return 0


def _cmd_tensor(args: argparse.Namespace) -> int:
    group = group_from_spec(args.spec)
    start = time.perf_counter()
    data = tensor_square(group, Squares(args.max_cosets))
    elapsed = time.perf_counter() - start
    if args.stats:
        if data.counters:
            defined, peak_live, coincidences = data.counters
            counters = (
                f"defined {defined}, peak live {peak_live}, "
                f"coincidences {coincidences}, cosets {data.order * group.order}"
            )
        else:
            counters = "not enumerated"
        print(f"stats: tensor square {elapsed:.3f} s, {counters}", file=sys.stderr)
    print(f"group: {group.name}")
    print(f"tensor square order: {data.order}")
    print(f"J2 order: {j2_order(group, data)}")
    print(f"tensor center order: {tensor_center(group, data).order}")
    cls = tensor_class(group, data)
    print(f"tensor class: {cls if cls is not None else 'none'}")
    return 0


def _cmd_degree(args: argparse.Namespace) -> int:
    group = group_from_spec(args.spec)
    data = tensor_square(group, Squares(args.max_cosets))
    subgroup = (
        subgroup_from_words(group, args.subgroup)
        if args.subgroup is not None
        else full_subgroup(group)
    )
    # every value before any output: an error leaves stdout empty
    d, d_tensor = comm_degree(group), tensor_degree(group, data)
    value = rel_n_tensor_degree(group, data, subgroup, args.n)
    label = "G" if args.subgroup is None else f"<{args.subgroup}>"
    print(f"group: {group.name}")
    print(f"d(G) = {_degree_line(d)}")
    print(f"d_tensor(G) = {_degree_line(d_tensor)}")
    print(f"d_tensor[n={args.n}]({label}, G) = {_degree_line(value)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = Config(
        max_cosets=args.max_cosets,
        max_order=args.max_order,
        n_max=args.n_max,
        jobs=args.jobs,
    )
    if args.corpus == "builtin":
        corpus = builtin_corpus(config.max_order)
    else:
        corpus = corpus_from_file(args.corpus, config.max_order)
    report = run_suite(corpus, args.theorems, config)
    # compiled here, not at import: only verify writes a report
    from .report import WRITERS
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as handle:
        WRITERS[args.format](report, handle.write)
    summary = report.summary
    print(
        f"checks: {len(report.checks)}  pass: {summary['pass']}  "
        f"fail: {summary['fail']}  skipped: {summary['skipped']}  "
        f"flagged: {summary['flagged']}",
        file=sys.stderr,
    )
    return 1 if summary["fail"] > 0 else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouptensor",
        description=(
            "Tensor squares, tensor degrees, and exact verification of degree "
            "bounds for small finite groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("spec", help="group spec, e.g. D8, C2xC4, E2^3")
    cosets = argparse.ArgumentParser(add_help=False)
    cosets.add_argument(
        "--max-cosets",
        type=int,
        default=DEFAULT_MAX_COSETS,
        help="coset limit for tensor-square enumeration",
    )

    p_info = sub.add_parser("info", parents=[spec], help="order, center, derived subgroup, class")
    p_info.set_defaults(func=_cmd_info)

    p_tensor = sub.add_parser(
        "tensor", parents=[spec, cosets], help="tensor square and derived structure"
    )
    p_tensor.add_argument(
        "--stats",
        action="store_true",
        help="print the tensor-square time and enumeration counters to stderr",
    )
    p_tensor.set_defaults(func=_cmd_tensor)

    p_degree = sub.add_parser("degree", parents=[spec, cosets], help="exact degree quantities")
    p_degree.add_argument(
        "--subgroup",
        help='subgroup generators as comma-separated words, e.g. "a^2,a*b"',
    )
    p_degree.add_argument("--n", type=int, default=1, help="degree index (default 1)")
    p_degree.set_defaults(func=_cmd_degree)

    p_verify = sub.add_parser("verify", parents=[cosets], help="run the check suite over a corpus")
    p_verify.add_argument(
        "--corpus",
        default="builtin",
        help="'builtin' or a path to a file with one spec per line ('#' comments)",
    )
    p_verify.add_argument(
        "--theorems",
        default="all",
        help="comma-separated check ids, or 'all'",
    )
    p_verify.add_argument("--max-order", type=int, default=16)
    p_verify.add_argument(
        "--n-max", type=int, default=4, help="largest degree index to exercise"
    )
    p_verify.add_argument("--out", help="write the report here instead of stdout")
    p_verify.add_argument(
        "--format", choices=("json", "csv", "table"), default="json"
    )
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupTensorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
