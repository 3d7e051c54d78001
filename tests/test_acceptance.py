"""Acceptance suite: one test per shipping criterion, with a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 7 carries one strict-xfail companion test: the evaluated
statements include four whose n-small cases are violated on this corpus
(machine-certified counterexamples, reproduced by the independent naive
oracle), so the blanket zero-violations expectation cannot hold; the xfail
documents that loudly and flips to a hard failure if the violations ever
disappear.
"""

import hashlib
import time
from fractions import Fraction

import pytest

from grouptensor import (
    Config,
    all_subgroups,
    builtin_corpus,
    center,
    check_theorem,
    derived_subgroup,
    group_from_spec,
    j2_order,
    n_tensor_degree,
    rel_n_tensor_degree,
    run_suite,
    subgroup_from_words,
    tensor_center,
    tensor_centralizer,
    tensor_degree,
    tensor_square,
    tensor_square_presentation,
    tensor_upper_central,
    todd_coxeter,
)
from grouptensor.cli import main
from grouptensor.coset_enum import COMPLETED, EXCEEDED
from naive import NAIVE_TUPLE_LIMIT, rel_n_tensor_degree_naive
from presentations import standard_presentation
from grouptensor.verify import THEOREM_IDS, TheoremCheck

# The statements with machine-certified counterexamples on this corpus; see
# the README section on verified violations.  Everything else must hold on
# every instance.
KNOWN_VIOLATED_IDS = {"thm-2.3", "thm-2.5", "thm-2.6", "thm-3cases"}


def report_line(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {num}: {verdict} - {detail}")


@pytest.fixture(scope="module")
def corpus16_report():
    started = time.monotonic()
    report = run_suite(builtin_corpus(16), THEOREM_IDS, Config())
    return report, time.monotonic() - started


def suite_failures(report) -> list[TheoremCheck]:
    return [
        c for c in report.checks if not c.skipped and c.note is None and c.holds is False
    ]


def test_criterion_1_c4_subgroup_degree(capsys):
    ok = False
    try:
        started = time.monotonic()
        code = main(["degree", "C4", "--subgroup", "a^2", "--n", "2"])
        elapsed = time.monotonic() - started
        out = capsys.readouterr().out
        assert code == 0
        assert "= 1/1 (1.000)" in out.splitlines()[-1]
        assert elapsed < 1.0
        ok = True
    finally:
        with capsys.disabled():
            report_line(1, ok, "degree C4 --subgroup a^2 --n 2 is exactly 1/1 in < 1 s")


def test_criterion_2_d8_example_discrepancy(capsys):
    ok = False
    try:
        d8 = group_from_spec("D8")
        data = tensor_square(d8)
        h = subgroup_from_words(d8, "a^2,a*b")
        dp = rel_n_tensor_degree(d8, data, h, 4)
        naive = rel_n_tensor_degree_naive(d8, data, h, 4)
        # hard failure if the production path and the oracle disagree
        assert dp == naive
        assert dp == Fraction(1)
        report = run_suite(builtin_corpus(16), "all", Config())
        # the default report, byte for byte
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == "42e0684b5c76c0c6957ea251ca33e8bf48c934afc7b7f9044e4c343bec2a7fa8"
        assert report.summary == {"pass": 4037, "fail": 274, "skipped": 0, "flagged": 1}
        flagged = [c for c in report.checks if c.note is not None and not c.skipped]
        assert len(flagged) == 1
        record = flagged[0]
        assert record.id == "ex-3.3" and record.note == "paper-example-discrepancy"
        assert record.rhs == Fraction(192, 2048)
        assert record.witness["reference"] == "192/2048"
        # the reference-value mismatch is flagged, never a suite failure
        assert all(f.id != "ex-3.3" for f in suite_failures(report))
        ok = True
    finally:
        with capsys.disabled():
            report_line(
                2,
                ok,
                "d_4(<a^2,ab>, D8): DP and oracle agree on 1/1; one flagged "
                "record carries the 192/2048 reference value",
            )


def test_criterion_3_s3_ladder(capsys):
    ok = False
    try:
        started = time.monotonic()
        s3 = group_from_spec("S3")
        data = tensor_square(s3)
        for n in (1, 2, 3, 4):
            assert n_tensor_degree(s3, data, n) <= Fraction(2**n - 1, 2**n)
        assert tensor_center(s3, data).order == 1
        assert tensor_degree(s3, data) <= Fraction(1, 2)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        ok = True
    finally:
        with capsys.disabled():
            report_line(
                3,
                ok,
                "d_n(S3) <= (2^n - 1)/2^n for n in 1..4, trivial tensor center, "
                "tensor degree <= 1/2, in < 5 s",
            )


def test_criterion_4_abelian_oracle(capsys):
    ok = False
    try:
        for n in range(2, 9):
            assert tensor_square(group_from_spec(f"C{n}")).order == n
        for spec in ("C2xC2", "C2xC4", "C2xC2xC2", "C3xC3"):
            # tensor_square takes the bilinear path; enumeration is independent
            g = group_from_spec(spec)
            cosets = todd_coxeter(tensor_square_presentation(g)).coset_count
            assert tensor_square(g).order * g.order == cosets
        c2 = group_from_spec("C2")
        assert tensor_degree(c2, tensor_square(c2)) == Fraction(3, 4)
        for p in (2, 3, 5):
            g = group_from_spec(f"C{p}")
            value = tensor_degree(g, tensor_square(g))
            assert value == Fraction(2 * p - 1, p * p)
            pair_count = sum(
                1 for x in range(p) for y in range(p) if (x * y) % p == 0
            )
            assert value == Fraction(pair_count, p * p)
        ok = True
    finally:
        with capsys.disabled():
            report_line(
                4,
                ok,
                "cyclic tensor-square orders are n and the bilinear orders of "
                "abelian products match enumeration; tensor degrees of C2, C3, "
                "C5 equal (2p-1)/p^2",
            )


def test_criterion_5_structural_invariants(capsys):
    ok = False
    try:
        started = time.monotonic()
        for entry in builtin_corpus(16):
            g = entry.group
            data = tensor_square(g)
            trivial = data.trivial
            for x in g.elements():
                assert trivial[0][x] and trivial[x][0]
                for y in g.elements():
                    assert trivial[x][y] == trivial[y][x]
                    if trivial[x][y]:
                        assert g.mul[x][y] == g.mul[y][x]
            zt = tensor_center(g, data)
            assert set(zt.elements) <= set(center(g).elements)
            assert data.order == j2_order(g, data) * derived_subgroup(g).order
            for x in g.elements():
                tensor_centralizer(g, data, x)  # closure is checked inside
            prev = None
            for n in (1, 2, 3):
                # pullback and the direct definition are cross-checked inside
                term = tensor_upper_central(g, data, n)
                if prev is not None:
                    assert set(prev.elements) <= set(term.elements)
                prev = term
        elapsed = time.monotonic() - started
        assert elapsed < 300.0
        ok = True
    finally:
        with capsys.disabled():
            report_line(
                5,
                ok,
                "symmetry, commuting-compatibility, tensor center containment, "
                "order divisibility, centralizer closure, and the central "
                "series cross-check hold over the whole corpus in < 5 min",
            )


def test_criterion_6_oracle_equivalence(capsys):
    ok = False
    checked = 0
    try:
        for entry in builtin_corpus(16):
            g = entry.group
            if g.order > 12:
                continue
            data = tensor_square(g)
            for h in all_subgroups(g):
                for n in (1, 2, 3):
                    dp = rel_n_tensor_degree(g, data, h, n)
                    naive = rel_n_tensor_degree_naive(g, data, h, n)
                    assert dp == naive, (entry.spec, h.elements, n)
                    checked += 1
        assert checked > 300
        ok = True
    finally:
        with capsys.disabled():
            report_line(
                6,
                ok,
                f"dynamic program equals naive enumeration on {checked} "
                "(group, subgroup, n) instances, exhaustive to order 12",
            )


def test_criterion_7_theorem_suite(corpus16_report, capsys):
    ok = False
    try:
        report, elapsed = corpus16_report
        assert elapsed < 600.0
        evaluated_ids = {c.id for c in report.checks if not c.skipped}
        assert evaluated_ids == set(THEOREM_IDS)
        for check in report.checks:
            if not check.skipped:
                assert isinstance(check.lhs, Fraction) or check.lhs is None
                assert isinstance(check.rhs, Fraction)
        bad = suite_failures(report)
        # every violation is confined to the four statements with certified
        # counterexamples; all other statements hold on every instance
        assert {c.id for c in bad} <= KNOWN_VIOLATED_IDS
        for check in bad:
            assert check.witness is not None
            _assert_reproducible(check)
        ok = True
    finally:
        with capsys.disabled():
            report, elapsed = corpus16_report
            bad = suite_failures(report)
            report_line(
                7,
                ok,
                f"suite ran {len(report.checks)} exact checks in {elapsed:.1f} s; "
                f"{len(bad)} violations, all within {sorted(KNOWN_VIOLATED_IDS)}, "
                "each with a reproducible witness (see xfail companion)",
            )


def _assert_reproducible(check: TheoremCheck) -> None:
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
    assert again.lhs == check.lhs
    assert again.rhs == check.rhs
    assert again.holds is False
    _assert_lhs_matches_naive(check)


def _assert_lhs_matches_naive(check: TheoremCheck) -> None:
    """Re-derive a violated record's left side by direct tuple enumeration."""
    if check.id not in ("thm-2.2", "thm-2.3", "thm-2.5", "thm-2.6", "thm-3cases"):
        return
    g = group_from_spec(check.group)
    data = tensor_square(g)
    if check.subgroup is not None:
        from grouptensor.groups import SubgroupHandle

        h = SubgroupHandle(g, check.subgroup)
    else:
        from grouptensor.groups import full_subgroup

        h = full_subgroup(g)
    n = check.n if check.n is not None else 1
    if check.id in ("thm-2.3", "thm-2.5"):
        n += 1  # these statements bound the (n+1)-st degree
    if h.order**n * g.order > NAIVE_TUPLE_LIMIT:
        return
    assert rel_n_tensor_degree_naive(g, data, h, n) == check.lhs


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the zero-violations expectation is falsified by the corpus: the "
        "half-(1 + d_n) bound and its consequences fail at small n, e.g. "
        "d_2(C2) = 1 > 7/8 = (1 + d_1(C2))/2 and d_1(C2) = 3/4 > 5/8; the "
        "left sides are confirmed by the independent naive oracle, so these "
        "are counterexamples to the statements, not engine defects"
    ),
)
def test_criterion_7_zero_violation_expectation(corpus16_report):
    report, _ = corpus16_report
    assert suite_failures(report) == []


def test_criterion_8_coset_enumeration(capsys):
    ok = False
    try:
        expected = {
            ("cyclic", 4): 4,
            ("dihedral", 8): 8,
            ("quaternion", 8): 8,
            ("symmetric", 3): 6,
        }
        for (family, param), order in expected.items():
            table = todd_coxeter(standard_presentation(family, param))
            assert table.status == COMPLETED and table.coset_count == order
        for entry in builtin_corpus(16):
            data = tensor_square(entry.group)  # default max_cosets
            assert data.order >= 1
        capped = todd_coxeter(
            tensor_square_presentation(group_from_spec("D8")), max_cosets=10
        )
        assert capped.status == EXCEEDED
        ok = True
    finally:
        with capsys.disabled():
            report_line(
                8,
                ok,
                "standard presentations enumerate to 4/8/8/6 cosets; every "
                "corpus tensor square completes; the coset cap reports "
                "exceeded-limit without crashing",
            )


def test_criterion_9_determinism_across_jobs(tmp_path, capsys):
    ok = False
    try:
        first = tmp_path / "jobs1.json"
        second = tmp_path / "jobs8.json"
        assert main(["verify", "--jobs", "1", "--out", str(first)]) in (0, 1)
        assert main(["verify", "--jobs", "8", "--out", str(second)]) in (0, 1)
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        ok = True
    finally:
        with capsys.disabled():
            report_line(9, ok, "verify reports are byte-identical for 1 and 8 workers")
