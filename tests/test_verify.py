import concurrent.futures
import csv
import hashlib
import io
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouptensor import (
    Config,
    SpecError,
    TheoremCheck,
    VerificationReport,
    __version__,
    builtin_corpus,
    check_theorem,
    group_from_spec,
    run_suite,
    tensor_degree,
    tensor_square,
)
from grouptensor import tensor as tensor_module
from grouptensor import verify as verify_module
from grouptensor.degrees import format_decimal, format_fraction, rel_n_tensor_degree
from grouptensor.groups import FiniteGroup, all_subgroups, center, full_subgroup, normal_subgroups
from grouptensor.report import write_json
from grouptensor.tensor import Squares, tensor_class
from grouptensor.verify import (
    ALL_CHECK_IDS,
    DISCREPANCY_NOTE,
    THEOREM_IDS,
    CorpusEntry,
    EntryContext,
    _eval_lem_2_1,
    _holds,
    corpus_from_file,
    evaluate_entry,
    normalize_check_ids,
    summarize,
)
from naive import k_quotient


def failures(report):
    return [c for c in report.checks if not c.skipped and c.note is None and c.holds is False]


def test_builtin_corpus_membership():
    specs8 = [e.spec for e in builtin_corpus(8)]
    for expected in ["C1", "C8", "C2xC2", "C2xC4", "C2xC2xC2", "D8", "Q8", "S3"]:
        assert expected in specs8
    assert "D10" not in specs8 and "A4" not in specs8
    assert [e.spec for e in builtin_corpus(1)] == ["C1"]
    assert len(builtin_corpus(16)) >= 25
    specs24 = [e.spec for e in builtin_corpus(24)]
    assert "S4" in specs24 and "A4" in specs24


def test_corpus_entries_reparse(tmp_path):
    for entry in builtin_corpus(12):
        rebuilt = group_from_spec(entry.spec)
        assert rebuilt.mul == entry.group.mul
    path = tmp_path / "corpus.txt"
    path.write_text("# comment\nC4  # inline\n\nS3\n")
    entries = corpus_from_file(str(path), 16)
    assert [e.spec for e in entries] == ["C4", "S3"]


def test_corpus_entry_limit_marker():
    # an overflowing tensor square leaves one skipped record per check that
    # needs it; the tensor-free checks are still evaluated (sanity-lescot only
    # applies to groups that are not nilpotent, such as S3)
    tensor_free = {"thm-1.1", "sanity-erl", "sanity-lescot"}
    entry = next(e for e in builtin_corpus(8) if e.spec == "S3")
    checks = evaluate_entry(entry, ALL_CHECK_IDS, Config(max_cosets=4))
    skipped = [c for c in checks if c.skipped]
    assert sorted(c.id for c in skipped) == sorted(set(ALL_CHECK_IDS) - tensor_free)
    for c in skipped:
        assert c.note.startswith("exceeded-limit")
        assert (c.subgroup, c.normal, c.n) == (None, None, None)
    assert all(c.holds is not None for c in checks if not c.skipped)
    assert {c.id for c in checks if not c.skipped} == tensor_free
    # under the default limit the same entry enumerates
    assert tensor_square(entry.group).order == 6


def test_check_theorem_tensor_overflow_is_skipped():
    config = Config(max_cosets=4)
    for check_id, instance in [
        ("thm-1.3", {"group": "S3"}),
        ("thm-2.6", {"group": "S3", "n": 1}),
        ("thm-2.2", {"group": "S3", "subgroup": [0, 1], "n": 1}),
        # uncapped, keep drops this instance (S3 has no tensor class);
        # capped, the overflow record still stands for the check
        ("lem-2.7", {"group": "S3", "n": 1}),
    ]:
        check = check_theorem(check_id, instance, config)
        assert check.skipped and check.holds is None, check_id
        assert check.note.startswith("exceeded-limit"), check_id
        assert check.n == instance.get("n"), check_id
    # thm-1.1 reads no tensor square: the cap leaves it evaluated
    pair = {"group": "S3", "subgroup": list(range(6)), "normal": [0]}
    check = check_theorem("thm-1.1", pair, config)
    assert not check.skipped and check.holds is not None
    assert (check.subgroup, check.normal) == (tuple(range(6)), (0,))


def test_quotients_with_one_table_share_one_context():
    # Z-tensor of E2^3 is trivial, so each K is the subgroup itself
    g = group_from_spec("E2^3")
    ctx = EntryContext("E2^3", g, Config())
    assert ctx.ztensor.order == 1
    fours = [n for n in normal_subgroups(g) if n.order == 4]
    twos = [h for h in all_subgroups(g) if h.order == 2]
    assert len(fours) == len(twos) == 7
    quotients = {id(ctx.quotient(n)[0]) for n in fours}
    ks = {id(ctx.k_quotient(h)) for h in twos}
    assert len(quotients) == len(ks) == 1
    first = ctx.quotient(fours[0])[0]
    assert first.group.name == "E2^3/N4" and first.tensor.order == 2
    assert ctx.k_quotient(twos[0]).group.name == "E2^3/N1<2>"


@pytest.mark.parametrize("spec", ["D8", "Q8", "D16", "Q16", "C2xD8", "D12", "C2xA4"])
def test_k_quotient_agrees_with_the_quotient_taken_inside_h(spec):
    # no corpus group has Z-tensor != 1, so the centre stands in for it: a
    # central Z makes H n Z != 1 for many H, and K = H / (H n Z) is then read
    # from G/Z by verify and quotiented inside H by the oracle
    g = group_from_spec(spec)
    ctx = EntryContext(spec, g, Config())
    z = ctx.__dict__["ztensor"] = center(g)
    assert z.order > 1
    squares = Squares()
    for h in all_subgroups(g):
        kc, k = ctx.k_quotient(h), k_quotient(h, z)
        data = squares(k)
        assert kc.group.order == k.order == h.order // len(h._set & z._set)
        assert kc.tensor.order == data.order
        assert [kc.dn(kc.full, n) for n in (1, 2, 3)] == [
            rel_n_tensor_degree(k, data, full_subgroup(k), n) for n in (1, 2, 3)
        ]
        assert kc.tclass == tensor_class(k, data)


@pytest.mark.parametrize(("spec", "normals"), [("S4", 4), ("D8", 6)])
def test_each_quotient_is_projected_once(monkeypatch, spec, normals):
    # thm-1.1 and thm-quot read G/N for every pair, thm-2.3 reads G/Z-tensor
    calls = []
    project = verify_module.quotient

    def counted(group, n):
        calls.append(n.elements)
        return project(group, n)

    monkeypatch.setattr(verify_module, "quotient", counted)
    g = group_from_spec(spec)
    evaluate_entry(CorpusEntry(spec, g), ("thm-1.1", "thm-quot", "thm-2.3"), Config())
    assert len(normal_subgroups(g)) == normals
    assert sorted(calls) == sorted(n.elements for n in normal_subgroups(g))


def test_children_with_one_table_and_two_names_are_two_contexts():
    ctx = EntryContext("C4", group_from_spec("C4"), Config())
    c2 = group_from_spec("C2")
    same = ctx.child(c2)
    assert ctx.child(group_from_spec("C2")) is same
    renamed = ctx.child(FiniteGroup(c2.mul, name="C4/N2"))
    assert renamed is not same and renamed.group.name == "C4/N2"
    assert renamed.tensor is same.tensor


def test_a_serial_suite_squares_each_table_once(monkeypatch):
    calls = []
    enumerate_ = tensor_module.todd_coxeter

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(tensor_module, "todd_coxeter", counted)
    s3 = group_from_spec("S3")
    corpus = [CorpusEntry("S3", s3), CorpusEntry("T", FiniteGroup(s3.mul, name="T"))]
    run_suite(corpus, "all", Config(max_order=6))
    assert len(calls) == 1


def test_verify_on_e2_5_builds_one_context_per_name_and_table(monkeypatch):
    built = []
    init = EntryContext.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(EntryContext, "__init__", counting)
    g = group_from_spec("E2^5")
    run_suite([CorpusEntry("E2^5", g)], "all", Config(max_order=32))
    # the root, G/N for |N| = 1..32 and K = H for |H| = 1..32
    assert len(built) == 13
    assert len(set(built)) == 13


def test_normalize_check_ids():
    assert normalize_check_ids("all") == ALL_CHECK_IDS
    assert normalize_check_ids("thm-2.2,ex-3.3") == ("thm-2.2", "ex-3.3")
    with pytest.raises(SpecError):
        normalize_check_ids("thm-9.9")
    with pytest.raises(SpecError):
        normalize_check_ids("")


def test_check_theorem_single_instances():
    # a subgroup-index bound evaluated on one instance with exact sides
    s3 = group_from_spec("S3")
    a3 = [x for x in s3.elements() if s3.element_order(x) in (1, 3)]
    check = check_theorem("thm-2.2", {"group": "S3", "subgroup": a3, "n": 1})
    assert check.holds is True
    assert check.lhs is not None and check.rhs is not None
    assert check.rhs == Fraction(2) ** 2 * check_theorem(
        "thm-2.2", {"group": "S3", "subgroup": list(range(6)), "n": 1}
    ).lhs
    # indices are matched as a handle stores them: sorted, without duplicates
    unsorted = check_theorem("thm-2.2", {"group": "S3", "subgroup": a3[::-1] + a3[:1], "n": 1})
    assert unsorted == check

    bound = check_theorem("thm-1.3", {"group": "S3"})
    assert bound.rhs == Fraction(1, 2)
    assert bound.lhs == tensor_degree(s3, tensor_square(s3))
    assert bound.holds is True


def test_check_theorem_skips_inapplicable():
    # the tensor-center hypothesis fails for abelian groups
    skipped = check_theorem("thm-1.3", {"group": "C4"})
    assert skipped.skipped and skipped.note == "hypothesis-not-met"
    # tensor class of C2 is 2, so the class <= 1 hypothesis fails at n = 1
    skipped2 = check_theorem("lem-2.7", {"group": "C2", "n": 1})
    assert skipped2.skipped
    held = check_theorem("lem-2.7", {"group": "C2", "n": 2})
    assert held.holds is True and held.lhs == Fraction(1)


def test_example_checks():
    ex2 = check_theorem("ex-3.2", {"group": "C4", "subgroup": [0, 2], "n": 2})
    assert ex2.holds is True and ex2.lhs == 1 and ex2.rhs == 1

    ex3 = check_theorem(
        "ex-3.3", {"group": "D8", "subgroup": [0, 2, 5, 7], "n": 4}
    )
    assert ex3.holds is False
    assert ex3.note == DISCREPANCY_NOTE
    assert ex3.lhs == Fraction(1)
    assert ex3.rhs == Fraction(3, 32)
    assert ex3.witness["reference"] == "192/2048"


def test_trivial_group_suite_all_holds():
    report = run_suite(builtin_corpus(1), "all", Config(max_order=1))
    assert failures(report) == []
    assert report.summary["fail"] == 0
    assert all(c.holds or c.skipped for c in report.checks)


def test_suite_determinism_and_summary():
    config = Config(max_order=6)
    corpus = builtin_corpus(6)
    r1 = run_suite(corpus, "all", config)
    r2 = run_suite(corpus, "all", config)
    assert r1.to_json() == r2.to_json()
    assert r1.render("csv") == r2.render("csv")
    total = sum(r1.summary.values())
    assert total == len(r1.checks)
    assert summarize(r1.checks) == r1.summary


def test_n_max_gives_each_degree_index_once():
    assert Config().echo()["n_values"] == [1, 2, 3, 4]
    assert Config(n_max=2).echo()["n_values"] == [1, 2]
    # each (group, subgroup) once per index: 25 records at n_max 1, 50 at 2
    one = run_suite(builtin_corpus(6), "thm-2.2", Config(max_order=6, n_max=1))
    two = run_suite(builtin_corpus(6), "thm-2.2", Config(max_order=6, n_max=2))
    keys = [check.sort_key() for check in two.checks]
    assert len(one.checks) == 25 and len(keys) == len(set(keys)) == 50
    for bad in (0, -1):
        with pytest.raises(SpecError, match="positive"):
            Config(n_max=bad)


def test_suite_parallel_matches_serial():
    corpus = builtin_corpus(8)
    serial = run_suite(corpus, ("thm-2.2", "thm-quot", "ex-3.3"), Config(max_order=8, jobs=1))
    parallel = run_suite(corpus, ("thm-2.2", "thm-quot", "ex-3.3"), Config(max_order=8, jobs=4))
    assert serial.to_json() == parallel.to_json()


def test_the_pool_starts_at_most_one_worker_per_entry(monkeypatch):
    # the pool starts all its workers on its first submit; a fake records the
    # size asked for and maps serially, so no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    corpus = builtin_corpus(4)[:2]
    ids = ("thm-2.2", "thm-quot")
    serial = run_suite(corpus, ids, Config(max_order=4, jobs=1))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    pooled = run_suite(corpus, ids, Config(max_order=4, jobs=64))
    assert sizes == [2]
    assert pooled.to_json() == serial.to_json()


def test_exactly_one_flagged_record():
    report = run_suite(builtin_corpus(8), "all", Config(max_order=8))
    flagged = [c for c in report.checks if c.note is not None and not c.skipped]
    assert len(flagged) == 1
    assert flagged[0].id == "ex-3.3"
    assert report.summary["flagged"] == 1


def test_exceeded_limit_records_skips():
    report = run_suite(builtin_corpus(8), "all", Config(max_order=8, max_cosets=4))
    skipped = [c for c in report.checks if c.skipped]
    assert all("exceeded-limit" in (c.note or "") for c in skipped)
    # the cap bounds only enumerations that run: abelian groups, products and
    # 2-groups never enumerate, so only S3 skips
    assert {c.group for c in skipped} == {"S3"}
    assert report.summary == {"pass": 1776, "fail": 84, "skipped": 14, "flagged": 1}
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == "842f35e3bfc8bc5d0448b118e3d3f06578d08f628b97a6f88dec1d30c6c72b8d"


def single_spec_report(tmp_path, spec, max_order):
    path = tmp_path / "corpus.txt"
    path.write_text(f"{spec}\n", encoding="utf-8")
    return run_suite(corpus_from_file(str(path), max_order), "all", Config(max_order=max_order))


def test_product_group_report_is_pinned(tmp_path):
    # the quotients and subgroups of a product are product tables built by
    # nothing; the report bytes must not depend on which tensor-square path
    # they take
    for spec, pinned in [
        ("Q8xC4", "8e7b2392b321c653346b2684dd612474f3981247b465a2ccb62442c7d16fcdf7"),
        ("C2xC2xD8", "45b175916eb81a6193d89f66bd569b70b54eb2fd8668ac592805e511e746cc6b"),
    ]:
        report = single_spec_report(tmp_path, spec, 32)
        assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == pinned, spec


@pytest.mark.parametrize(
    ("spec", "checks", "failures", "pinned"),
    [
        ("S3xS3", 1374, {"thm-2.3": 55, "thm-3cases": 37},
         "c220e4c4fbb06bfa7bfc78f57dc4e10e752de5e1a65697d55dbd56341f39e965"),
        ("D40", 1134, {"thm-2.3": 53, "thm-2.5": 4, "thm-3cases": 40},
         "a738fbccd48465a1b7b4ff3009019e375cf74863eed998710b9047ef3fbc86c4"),
        ("A5", 1081, {"thm-2.3": 36, "thm-3cases": 36},
         "70980a89cc75dc0c0fd2e9b937accbe66ac31eab0a3c6a0a8efd99420a7a550e"),
        ("D48", 1719, {"thm-2.3": 83, "thm-2.5": 4, "thm-3cases": 53},
         "7e1fbbd8d80a3dc96610d719c60728a4a2091d5505b059f5d4286f0dfee87df9"),
        ("E2^5", 33714, {"thm-2.3": 373, "thm-2.5": 1},
         "f5b6c8799afd3322a6d07b057810ba5d939e4bfcd74cc7c894bf8bf510d3ceca"),
    ],
    ids=["S3xS3", "D40", "A5", "D48", "E2^5"],
)
def test_report_above_order_32_is_pinned(tmp_path, spec, checks, failures, pinned):
    report = single_spec_report(tmp_path, spec, 64)
    assert len(report.checks) == checks
    assert Counter(c.id for c in report.checks if c.holds is False) == failures
    assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == pinned


@pytest.mark.slow
@pytest.mark.parametrize(
    ("spec", "summary", "failures", "pinned"),
    [
        ("D8xD8", (13430, 776), {"thm-2.3": 526, "thm-2.5": 2, "thm-3cases": 248},
         "9a63931db1d1dc87153140f360059a69f9bafb10eb970ebe04cd4d25d5d82451"),
        ("D8xQ8", (9111, 375), {"thm-2.3": 278, "thm-2.5": 2, "thm-3cases": 95},
         "e53151c52bf360cb0b0dfc1e42f50586a4f0af26169a3607da2c7df3537cf334"),
        ("Q8xQ8", (7427, 251), {"thm-2.3": 196, "thm-2.5": 1, "thm-3cases": 54},
         "0f9fee2dce373fb72ddf046be79806da40cf376ad08f9e80fb3b39dacf978fab"),
        ("Q8xC2xC4", (11435, 297), {"thm-2.3": 213, "thm-2.5": 2, "thm-3cases": 82},
         "e512713087e189c2b27e91deea8ce530b9ffd2ad382b8da5f2a306f1cd437c9e"),
        ("E2^6", (512437, 2825), {"thm-2.3": 2824, "thm-2.5": 1},
         "7509464d071328c746640d9c9e69091e6499d8c57e7dc887272e6126be89f5c3"),
    ],
    ids=["D8xD8", "D8xQ8", "Q8xQ8", "Q8xC2xC4", "E2^6"],
)
def test_order_64_two_group_report_is_pinned(tmp_path, spec, summary, failures, pinned):
    # a few seconds each, with no skips: the 2-group quotients, 2^{1+4}_+
    # among them, square under the default coset cap; E2^6, the largest
    # legal report (about 280 MB of JSON), takes 15-30 s, and is hashed a
    # batch at a time, as verify writes it, not as one to_json text
    report = single_spec_report(tmp_path, spec, 64)
    passed, failed = summary
    assert report.summary == {"pass": passed, "fail": failed, "skipped": 0, "flagged": 0}
    assert Counter(c.id for c in report.checks if c.holds is False) == failures
    digest = hashlib.sha256()
    write_json(report, lambda text: digest.update(text.encode("utf-8")))
    assert digest.hexdigest() == pinned


@pytest.mark.parametrize(
    ("max_order", "fmt", "pinned"),
    [
        (24, "json", "0039a9e302c7b844fab08832d2f2dc7b255fabd7485535534c248aa50d3fdeee"),
        (8, "csv", "51fe464c491c907faed7013ef1fc9292053fe17f8850c1cb0c3626bb49b435ce"),
        (8, "table", "1e60c7552e694e1de0ed538fc18310ccbfca5d12b9e2c8b7841c88a39df97fb8"),
    ],
    ids=["json-24", "csv-8", "table-8"],
)
def test_report_is_pinned(max_order, fmt, pinned):
    report = run_suite(builtin_corpus(max_order), "all", Config(max_order=max_order))
    assert hashlib.sha256(report.render(fmt).encode("utf-8")).hexdigest() == pinned


# The report as a document of plain dicts, rendered by the standard library:
# the independent cross-check of the bytes VerificationReport writes itself.
COLUMNS = [
    "id", "group", "subgroup", "normal", "n", "variant",
    "lhs", "lhs_decimal", "rhs", "rhs_decimal", "relation",
    "holds", "skipped", "note", "witness",
]


def oracle_record(check):
    out = {"id": check.id, "group": check.group}
    if check.subgroup is not None:
        out["subgroup"] = list(check.subgroup)
    if check.normal is not None:
        out["normal"] = list(check.normal)
    if check.n is not None:
        out["n"] = check.n
    if check.variant is not None:
        out["variant"] = check.variant
    for side in ("lhs", "rhs"):
        value = getattr(check, side)
        out[side] = None if value is None else f"{value.numerator}/{value.denominator}"
        out[f"{side}_decimal"] = None if value is None else format_decimal(value)
    out["relation"] = check.relation
    out["holds"] = check.holds
    if check.skipped:
        out["skipped"] = True
    if check.note is not None:
        out["note"] = check.note
    if check.witness is not None:
        out["witness"] = check.witness
    return out


def oracle_json(report):
    doc = {
        "version": report.version,
        "config": report.config,
        "checks": [oracle_record(check) for check in report.checks],
        "summary": report.summary,
    }
    return json.dumps(doc, indent=2) + "\n"


def oracle_csv(report):
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (list, dict)):
            return json.dumps(value, sort_keys=True, separators=(",", ":"))
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for check in report.checks:
        record = oracle_record(check)
        writer.writerow([cell(record.get(column)) for column in COLUMNS])
    return buf.getvalue()


HAND_BUILT = [
    # every optional field present; a negative and a whole-number fraction
    TheoremCheck(
        id="thm-3cases", group="S3", subgroup=(0, 1, 2), normal=(0,), n=2,
        variant="case-iii", lhs=Fraction(-3, 4), rhs=Fraction(2), relation="le",
        holds=False, note='a "quoted" \\ note on \u03bd(G) \u2245 G\u00e9',
        witness={"k_order": 6, "case": "case-ii", "abelian": False, "nilpotent": True,
                 "k_tensor_class": None},
    ),
    # every optional field absent: no sides, holds None
    TheoremCheck(id="sanity-erl", group="C1"),
    TheoremCheck(id="thm-1.1", group="C2", subgroup=(0,), lhs=Fraction(1), rhs=Fraction(1),
                 relation="eq", holds=True),
    TheoremCheck(id="thm-2.2", group="D8", subgroup=(0,), n=3, skipped=True,
                 note="exceeded-limit: tensor-square enumeration for D8 exceeded 4 cosets"),
    TheoremCheck(id="thm-2.6", group="Q8", n=1, lhs=Fraction(7, 8), rhs=Fraction(3, 4),
                 holds=False, witness={}),
    TheoremCheck(id="thm-quot", group="C4", subgroup=(), normal=(0,), n=1,
                 lhs=Fraction(0), rhs=Fraction(1, 3), holds=True, skipped=False),
    # tuples of the ints 0 and 1 beside bool fields, then 1 and True swapped
    # between n and holds: equal values of another class share no piece
    TheoremCheck(id="thm-2.2", group="C2", subgroup=(0, 1), normal=(1,), n=1,
                 lhs=Fraction(1), rhs=Fraction(1), relation="eq", holds=True),
    TheoremCheck(id="thm-2.2", group="C2", subgroup=(0, 1), normal=(0,), n=True,
                 lhs=Fraction(1), rhs=Fraction(1), relation="eq", holds=1, skipped=True),
    # the values of the record two above with True and 1 swapped: a run of
    # pieces is shared by class as well as by value
    TheoremCheck(id="thm-2.2", group="C2", subgroup=(0, 1), normal=(0,), n=True,
                 lhs=Fraction(1), rhs=Fraction(1), relation="eq", holds=1),
]


def json_writes(report, batch):
    writes = []
    write_json(report, writes.append, batch)
    return writes


def assert_batched_writes_match(report, text):
    """The JSON writes of ``report`` add up to ``text`` for batches of 1, 7
    and more pieces than the report has.

    With a batch of 1 each write is one piece: the head, then one per field
    present and one per record close, the last close with the tail (the head
    takes it when there is no record).  Each write of a larger batch joins
    exactly that many of those pieces in order, the last write at most that
    many, so no write holds more than one batch.
    """
    pieces = json_writes(report, 1)
    assert "".join(pieces) == text
    assert len(pieces) == 1 + sum(len(oracle_record(check)) + 1 for check in report.checks)
    for batch in (7, len(pieces) + 1):
        expected = ["".join(pieces[i:i + batch]) for i in range(0, len(pieces), batch)]
        assert json_writes(report, batch) == expected


@pytest.mark.parametrize("checks", [HAND_BUILT, HAND_BUILT[1:2], []], ids=["all", "one", "none"])
def test_hand_built_report_matches_the_stdlib_renderer(checks):
    report = VerificationReport(
        version=__version__, config=Config().echo(), checks=checks, summary=summarize(checks)
    )
    text = oracle_json(report)
    assert report.to_json() == text
    assert_batched_writes_match(report, text)
    assert report.render("csv") == oracle_csv(report)


@pytest.mark.parametrize(
    ("max_order", "config"),
    [(8, Config(max_order=8, max_cosets=4)), (1, Config(max_order=1))],
    ids=["capped", "trivial-group"],
)
def test_suite_report_matches_the_stdlib_renderer(max_order, config):
    report = run_suite(builtin_corpus(max_order), "all", config)
    text = oracle_json(report)
    assert report.to_json() == text
    assert_batched_writes_match(report, text)
    assert report.render("csv") == oracle_csv(report)


def test_hypothesis_filtering_in_suite():
    report = run_suite(builtin_corpus(8), "all", Config(max_order=8))
    abelian = {"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
               "C2xC2", "C2xC4", "C2xC2xC2"}
    for check in report.checks:
        if check.id == "thm-1.3" and not check.skipped:
            assert check.group not in abelian
        if check.id == "thm-2.8" and not check.skipped:
            assert check.group == "S3"
        if check.id == "thm-3cases" and not check.skipped:
            g = group_from_spec(check.group)
            assert len(check.subgroup) < g.order


def test_report_shapes():
    report = run_suite(builtin_corpus(4), ("thm-1.1", "ex-3.2"), Config(max_order=4))
    doc = json.loads(report.to_json())
    assert set(doc) == {"version", "config", "checks", "summary"}
    assert set(doc["summary"]) == {"pass", "fail", "skipped", "flagged"}
    for rec in doc["checks"]:
        assert rec["id"] in ("thm-1.1", "ex-3.2")
        assert rec["lhs"] is None or "/" in rec["lhs"]
        assert "lhs_decimal" in rec and "rhs_decimal" in rec
        assert rec["relation"] in ("le", "eq")
    csv_text = report.render("csv")
    lines = csv_text.strip().splitlines()
    assert len(lines) == len(report.checks) + 1
    assert lines[0].startswith("id,group,subgroup")
    table = report.render("table")
    assert "pass" in table and "verdict" in table


def test_report_ordering_sorted():
    report = run_suite(builtin_corpus(6), "all", Config(max_order=6))
    keys = [c.sort_key() for c in report.checks]
    assert keys == sorted(keys)


def test_violations_have_witnesses_and_reproduce():
    report = run_suite(builtin_corpus(8), "all", Config(max_order=8))
    bad = failures(report)
    assert bad, "the corpus is known to violate some published bounds"
    for check in bad:
        assert check.witness is not None, check
        instance = {"group": check.group}
        if check.subgroup is not None:
            instance["subgroup"] = list(check.subgroup)
        if check.normal is not None:
            instance["normal"] = list(check.normal)
        if check.n is not None:
            instance["n"] = check.n
        if check.variant is not None:
            instance["variant"] = check.variant
        again = check_theorem(check.id, instance)
        assert again.lhs == check.lhs and again.rhs == check.rhs
        assert again.holds is False


@pytest.mark.parametrize(
    "config",
    [Config(max_order=8), Config(max_order=8, max_cosets=4)],
    ids=["default", "capped"],
)
def test_check_theorem_reproduces_every_suite_record(config):
    # the suite and a single re-check share one instance path: every record,
    # passing, failing, flagged or skipped, comes back byte for byte
    report = run_suite(builtin_corpus(8), "all", config)
    assert report.checks
    for check in report.checks:
        instance = {"group": check.group}
        for key in ("subgroup", "normal", "n", "variant"):
            value = getattr(check, key)
            if value is not None:
                instance[key] = list(value) if key in ("subgroup", "normal") else value
        assert check_theorem(check.id, instance, config) == check


def test_known_violation_instances():
    # d_{2}(C2) = 1 exceeds (1 + d_1(C2)) / 2 = 7/8
    c = check_theorem("thm-2.3", {"group": "C2", "subgroup": [0, 1], "n": 1})
    assert c.holds is False
    assert c.lhs == Fraction(1) and c.rhs == Fraction(7, 8)
    # the n = 1 case of the class-bound statement fails on C2
    c2 = check_theorem("thm-2.6", {"group": "C2", "n": 1})
    assert c2.holds is False
    assert c2.lhs == Fraction(3, 4) and c2.rhs == Fraction(5, 8)


def test_theorem_id_list_is_complete():
    assert set(THEOREM_IDS) == {
        "thm-1.1", "thm-1.2", "thm-1.3", "lem-2.1", "thm-2.2", "thm-2.3",
        "thm-2.5", "thm-2.6", "lem-2.7", "thm-2.8", "thm-3cases", "thm-quot",
        "sanity-erl", "sanity-lescot",
    }


@given(st.fractions(), st.fractions(), st.booleans())
def test_integer_verdict_matches_the_fraction_comparison(lhs, rhs, equal):
    if equal:
        # an equal value in a distinct object, as two evaluators would build it
        rhs = Fraction(lhs.numerator, lhs.denominator)
    assert _holds(lhs, rhs, "le") == (lhs <= rhs)
    assert _holds(lhs, rhs, "eq") == (lhs == rhs)


def test_every_suite_verdict_is_the_fraction_comparison():
    report = run_suite(builtin_corpus(8), "all", Config(max_order=8))
    evaluated = [check for check in report.checks if not check.skipped]
    assert {check.relation for check in evaluated} == {"le", "eq"}
    for check in evaluated:
        if check.lhs is None:
            assert check.holds is False, check
        elif check.relation == "le":
            assert check.holds == (check.lhs <= check.rhs), check
        else:
            assert check.holds == (check.lhs == check.rhs), check


def _lem_2_1_by_ratios(ctx, h, variant):
    """The worst x and its ratio [H : C n H] / [G : C], chosen over one
    Fraction per element x, as lem-2.1 chose them before its integer index."""
    group = ctx.group
    ratios = [
        Fraction(h.order * c.order, len(h._set & c._set) * group.order) for c in ctx.centralizers
    ]
    one = Fraction(1)
    if variant == "index-bound":
        worst = max(range(len(ratios)), key=lambda x: (ratios[x], -x))
    else:
        worst = max(range(len(ratios)), key=lambda x: (abs(ratios[x] - one), -x))
    return worst, ratios[worst]


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "A4", "S4"])
def test_lem_2_1_integer_index_matches_the_ratio_oracle(spec):
    ctx = EntryContext(spec, group_from_spec(spec), Config())
    for h in all_subgroups(ctx.group):
        # both variants on every subgroup, whether or not its hypothesis holds
        for variant in ("index-bound", "product-equality"):
            found = _eval_lem_2_1(ctx, {"subgroup": h, "variant": variant})
            worst, ratio = _lem_2_1_by_ratios(ctx, h, variant)
            assert found.witness() == {"x": worst, "ratio": format_fraction(ratio)}
            assert type(found.lhs) is Fraction and found.lhs == ratio
