"""The text of a verification report: JSON, CSV and a fixed-width table.

``VerificationReport`` imports this module on its first render, so a run that
renders no report does not compile it.  The JSON text is the bytes of
``json.dumps(doc, indent=2) + "\\n"`` for the report's document of plain
dicts (tier-1 checks them), written straight from the records: with any
indent, the standard encoder takes its pure-Python path, one small string per
token.  The text is a flat list of pieces, one per field: its lead
(``"    {\\n"`` or ``",\\n"``), key and value text.  A record's pieces come in
two runs, where it is and what it found, and each distinct piece and run is
made once per render.  ``write_json`` hands a ``write`` callable one join of
at most ``BATCH`` pieces at a time, and CSV and table text go to it a line at
a time: ``verify`` never holds all the text.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional

from .degrees import format_decimal, format_fraction

if TYPE_CHECKING:
    from .verify import TheoremCheck, VerificationReport

Write = Callable[[str], object]

# JSON pieces per write of ``write_json``: 120-190 KB of report text.
BATCH = 4096

# The record fields in report order; an optional field that is None is left
# out of a JSON record.
_COLUMNS = (
    "id", "group", "subgroup", "normal", "n", "variant",
    "lhs", "lhs_decimal", "rhs", "rhs_decimal", "relation",
    "holds", "skipped", "note", "witness",
)
_OPTIONAL = frozenset({"subgroup", "normal", "n", "variant", "skipped", "note", "witness"})
# every record has an id, its first field
_LEADS = {key: ("    {\n" if key == "id" else ",\n") + f'      "{key}": ' for key in _COLUMNS}
# the runs of a record's pieces, where it is and what it found; a witness,
# the last field, is a dict: unhashable, so in neither
_PLACE, _FOUND = _COLUMNS[:4], _COLUMNS[4:-1]
# the close of a record that another follows
_NEXT = "\n    },\n"


def _nested_json(value, depth: int = 3) -> str:
    """``json.dumps(value, indent=2)`` as it reads ``depth`` levels deep; a
    record's fields are three levels deep.

    Re-indenting every line is safe: JSON strings hold no raw newline.
    """
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _piece(key: str, cls: type, value) -> str:
    """A field's JSON piece, memoized per render by ``cls``, the value's exact
    class, so that True and 1 never share a piece."""
    return _LEADS[key] + _nested_json(value)


def _pieces(piece: Callable, keys: tuple, values: tuple) -> tuple:
    """The pieces of the fields ``keys`` that are present among ``values``."""
    return tuple(
        piece(key, item.__class__, item)
        for key, item in zip(keys, values)
        if item is not None or key not in _OPTIONAL
    )


class _ReportText:
    """The text of record fields, for one render of one report.

    A report repeats few values many times (the suite at max-order 24 has 74
    distinct subgroup tuples in 6,732 uses and 282 distinct fractions in
    9,822), so each distinct fraction is formatted once, and ``write_json``
    makes each distinct piece once.  The memos live only as long as the render.
    """

    def __init__(self) -> None:
        self._fractions: dict = {}

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


def write_json(report: VerificationReport, write: Write, batch: Optional[int] = None) -> None:
    """Write the JSON text of ``report`` through ``write``, each call one join
    of at most ``batch`` pieces (``BATCH`` when not given)."""
    batch = batch or BATCH
    text, piece = _ReportText(), cache(_piece)
    # a place is shared by a record's every n; a finding is keyed by the
    # ratios of its sides and the classes of the fields that may hold True or 1
    places: dict = {}
    findings: dict = {}
    pieces = [
        '{\n  "version": ' + _nested_json(report.version, 1)
        + ',\n  "config": ' + _nested_json(report.config, 1)
        + ',\n  "checks": ' + ("[\n" if report.checks else "[]")
    ]
    for check in report.checks:
        place = check[:4]
        run = places.get(place)
        if run is None:
            run = places[place] = _pieces(piece, _PLACE, place)
        pieces += run
        n, lhs, rhs, holds, skipped = check.n, check.lhs, check.rhs, check.holds, check.skipped
        found = (
            n, n.__class__, check.variant,
            None if lhs is None else lhs.as_integer_ratio(),
            None if rhs is None else rhs.as_integer_ratio(),
            check.relation, holds, holds.__class__, skipped, skipped.__class__, check.note,
        )
        run = findings.get(found)
        if run is None:
            run = findings[found] = _pieces(piece, _FOUND, text.row(check)[4:])
        pieces += run
        if check.witness is not None:
            pieces.append(_LEADS["witness"] + _nested_json(check.witness))
        pieces.append(_NEXT)
        # leaves at least the record's _NEXT, which the tail may replace
        while len(pieces) > batch:
            write("".join(pieces[:batch]))
            del pieces[:batch]
    # the tail replaces the last _NEXT, or ends the head of an empty report
    last = "\n    }\n  ]" if report.checks else pieces[-1]
    pieces[-1] = last + ',\n  "summary": ' + _nested_json(report.summary, 1) + "\n}\n"
    write("".join(pieces))


def write_csv(report: VerificationReport, write: Write) -> None:
    import csv

    text = _ReportText()
    # a csv writer calls ``write`` once per row
    writer = csv.writer(SimpleNamespace(write=write), lineterminator="\n")
    writer.writerow(_COLUMNS)
    for check in report.checks:
        writer.writerow([_csv_cell(value) for value in text.row(check)])


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def write_table(report: VerificationReport, write: Write) -> None:
    header = f"{'id':12} {'group':10} {'sub':4} {'nrm':4} {'n':>2} {'variant':18} {'lhs':>12} {'rhs':>12} verdict"
    write(header + "\n" + "-" * len(header) + "\n")
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
        write(
            f"{check.id:12} {check.group:10} {sub:4} {nrm:4} "
            f"{check.n if check.n is not None else '':>2} "
            f"{check.variant or '':18} {lhs:>12} {rhs:>12} {verdict}\n"
        )
    write("\npass {pass} fail {fail} skipped {skipped} flagged {flagged}\n".format(**report.summary))


WRITERS = {"json": write_json, "csv": write_csv, "table": write_table}


def _joined(writer: Callable, report: VerificationReport) -> str:
    """All that ``writer`` writes of ``report``, as one string."""
    texts: list[str] = []
    writer(report, texts.append)
    return "".join(texts)
