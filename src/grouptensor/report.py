"""The text of a verification report: JSON, CSV and a fixed-width table.

``VerificationReport`` imports this module on its first render, so a run that
renders no report does not compile it.  The JSON text is the bytes of
``json.dumps(doc, indent=2) + "\\n"`` for the report's document of plain
dicts, but written straight from the records: with any indent, the standard
encoder takes its pure-Python path, one small string per token.  Tier-1
checks the bytes against ``json.dumps``.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Optional

from .degrees import format_decimal, format_fraction

if TYPE_CHECKING:
    from .verify import TheoremCheck, VerificationReport

# The record fields in report order; an optional field that is None is left
# out of a JSON record.
_COLUMNS = (
    "id", "group", "subgroup", "normal", "n", "variant",
    "lhs", "lhs_decimal", "rhs", "rhs_decimal", "relation",
    "holds", "skipped", "note", "witness",
)
_OPTIONAL = frozenset({"subgroup", "normal", "n", "variant", "skipped", "note", "witness"})
_KEYS = {key: f'      "{key}": ' for key in _COLUMNS}
_LITERALS = {None: "null", True: "true", False: "false"}


def _nested_json(value, depth: int = 3) -> str:
    """``json.dumps(value, indent=2)`` as it reads ``depth`` levels deep; a
    record's fields are three levels deep.

    Re-indenting every line is safe: JSON strings hold no raw newline.
    """
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


class _ReportText:
    """The text of record fields, for one render of one report.

    A report repeats few values many times (the suite at max-order 24 has 74
    distinct subgroup tuples in 6,732 uses and 282 distinct fractions in
    9,822), so each distinct value is formatted once.  The memos live only as
    long as the render that made them.
    """

    def __init__(self) -> None:
        self._fractions: dict = {}
        # json encodes a string with its C encode_basestring_ascii
        texts = cache(_nested_json)
        # by exact class, so that True and 1 never share a memo entry; any
        # other class (a witness dict) is encoded each time
        self._json = {
            str: texts,
            tuple: texts,
            int: int.__repr__,
            bool: _LITERALS.__getitem__,
            type(None): _LITERALS.__getitem__,
        }

    def _fraction(self, value: Optional[Fraction]) -> tuple:
        if value is None:
            return None, None
        # keyed by the ratio: a Fraction hashes and compares in Python code
        key = value.as_integer_ratio()
        texts = self._fractions.get(key)
        if texts is None:
            texts = self._fractions[key] = (format_fraction(value), format_decimal(value))
        return texts

    def row(self, check: TheoremCheck) -> tuple:
        """The fields of ``check`` in ``_COLUMNS`` order, an absent one as None."""
        return (
            check.id, check.group, check.subgroup, check.normal, check.n, check.variant,
            *self._fraction(check.lhs), *self._fraction(check.rhs), check.relation,
            check.holds, check.skipped or None, check.note, check.witness,
        )

    def json_record(self, check: TheoremCheck) -> str:
        encoders = self._json
        fields = [
            _KEYS[key] + encoders.get(item.__class__, _nested_json)(item)
            for key, item in zip(_COLUMNS, self.row(check))
            if item is not None or key not in _OPTIONAL
        ]
        return "    {\n" + ",\n".join(fields) + "\n    }"


def json_text(report: VerificationReport) -> str:
    text = _ReportText()
    records = ",\n".join(map(text.json_record, report.checks))
    # the records are joined into the report as they are, not copied first
    checks = ("[\n", records, "\n  ]") if records else ("[]",)
    return "".join((
        '{\n  "version": ', _nested_json(report.version, 1),
        ',\n  "config": ', _nested_json(report.config, 1),
        ',\n  "checks": ', *checks,
        ',\n  "summary": ', _nested_json(report.summary, 1),
        "\n}\n",
    ))


def csv_text(report: VerificationReport) -> str:
    import csv

    text = _ReportText()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for check in report.checks:
        writer.writerow([_csv_cell(value) for value in text.row(check)])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def table_text(report: VerificationReport) -> str:
    header = f"{'id':12} {'group':10} {'sub':4} {'nrm':4} {'n':>2} {'variant':18} {'lhs':>12} {'rhs':>12} verdict"
    lines = [header, "-" * len(header)]
    for check in report.checks:
        sub = str(len(check.subgroup)) if check.subgroup else ""
        nrm = str(len(check.normal)) if check.normal else ""
        if check.skipped:
            verdict = "SKIP"
        elif check.note:
            verdict = "FLAG"
        elif check.holds:
            verdict = "ok"
        else:
            verdict = "VIOLATED"
        lhs = format_fraction(check.lhs) if check.lhs is not None else ""
        rhs = format_fraction(check.rhs) if check.rhs is not None else ""
        lines.append(
            f"{check.id:12} {check.group:10} {sub:4} {nrm:4} "
            f"{check.n if check.n is not None else '':>2} "
            f"{check.variant or '':18} {lhs:>12} {rhs:>12} {verdict}"
        )
    lines.append("")
    lines.append(
        "pass {pass} fail {fail} skipped {skipped} flagged {flagged}".format(**report.summary)
    )
    return "\n".join(lines) + "\n"
