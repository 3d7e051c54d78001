"""Exact evaluation of every degree statement over a corpus of small groups.

Each named check evaluates one published-style statement (an inequality or
equality between exact rationals) on every applicable instance drawn from a
corpus entry.  Most checks share one of four domains (once per group, per
degree index n, per subgroup H and n, per pair N <= H with N normal in G,
optionally with n) and keep the members their hypotheses admit.  An instance
holds the live ``SubgroupHandle``s of its subgroups; the record stores their
element tuples.  Every quotient is ``EntryContext.quotient`` of the entry's
group, and each subgroup is projected once: into G/N for a pair, and into
G/Z-tensor for K = H / (H n Z-tensor).  A check that reads an overflowing
tensor square yields one skipped record (``_overflow``), in the suite and in
``check_theorem`` alike.

Each record costs little beyond what its group shares.  A verdict is decided
in integers, by cross-multiplying the two sides.  Values that many records
read are made once: degrees, lem-2.1's centralizer indices per subgroup,
thm-2.2's bound per index and n, and thm-2.3's per quotient K and n.
Checks are evaluations, not axioms: a violated statement is reported with a
complete witness instead of aborting, and only a record that does not hold
builds its witness.  Structural inconsistencies (a tensor centralizer, which
``tensor.tensor_centralizer`` builds for lem-2.1, failing to be a subgroup,
say) raise hard errors.  Reports are deterministic: identical inputs
serialize to identical bytes, regardless of worker count.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

from .coset_enum import DEFAULT_MAX_COSETS
from .degrees import format_fraction, rel_comm_degree, rel_n_tensor_degree
from .errors import LimitError, SpecError
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    all_subgroups,
    center,
    commutator_subgroup,
    full_subgroup,
    nilpotency_class,
    normal_subgroups,
    quotient,
    smallest_prime_divisor,
    subgroup_as_group,
    subgroup_generated,
)
from .specs import group_from_spec, subgroup_from_words
from .tensor import (
    Squares,
    TensorSquareData,
    j2_order,
    tensor_centralizer,
    tensor_class,
    tensor_square,
    tensor_upper_central,
)
from .version import __version__

DISCREPANCY_NOTE = "paper-example-discrepancy"


class Config(
    namedtuple(
        "Config", "max_cosets max_order n_max jobs",
        defaults=(DEFAULT_MAX_COSETS, 16, 4, 1),
    )
):
    """Suite configuration; the computation-relevant fields are echoed into
    reports.  The degree indices are 1..``n_max``, each once."""

    __slots__ = ()

    # validated here, which a typing.NamedTuple cannot define
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_cosets < 1 or self.max_order < 1 or self.n_max < 1 or self.jobs < 1:
            raise SpecError("config bounds must be positive")
        return self

    def echo(self) -> dict:
        # jobs steers execution, not the computation, and reports must be
        # byte-identical across worker counts; only the JSON report embeds
        # this echo, hence its fixed format key
        return {
            "max_cosets": self.max_cosets,
            "max_order": self.max_order,
            "n_values": list(range(1, self.n_max + 1)),
            "format": "json",
        }


class CorpusEntry(NamedTuple):
    """One corpus group and the spec it was built from."""

    spec: str
    group: FiniteGroup


BUILTIN_SPECS = (
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3",
    "D8", "D10", "D12", "D14", "D16",
    "Q8", "Q16",
    "S3", "A4", "S4",
)


def _corpus(specs: Sequence[str], max_order: int) -> list[CorpusEntry]:
    entries = [CorpusEntry(spec, group_from_spec(spec)) for spec in specs]
    return [entry for entry in entries if entry.group.order <= max_order]


def builtin_corpus(max_order: int) -> list[CorpusEntry]:
    """The fixed corpus, filtered to groups of order at most ``max_order``."""
    if max_order < 1:
        raise SpecError("max_order must be >= 1")
    return _corpus(BUILTIN_SPECS, max_order)


def corpus_from_file(path: str, max_order: int) -> list[CorpusEntry]:
    """One spec per line; '#' starts a comment.  A repeated spec is refused,
    as it would repeat each of its records."""
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            spec = line.split("#", 1)[0].strip()
            if spec in lines:
                raise SpecError(f"spec {spec!r} on line {number} repeats line {lines[spec]}")
            if spec:
                lines[spec] = number
    return _corpus(list(lines), max_order)


class TheoremCheck(NamedTuple):
    """One evaluated instance: exact sides, verdict, and violation witness."""

    id: str
    group: str
    subgroup: Optional[tuple[int, ...]] = None
    normal: Optional[tuple[int, ...]] = None
    n: Optional[int] = None
    variant: Optional[str] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    relation: str = "le"
    holds: Optional[bool] = None
    skipped: bool = False
    note: Optional[str] = None
    witness: Optional[dict] = None

    def sort_key(self) -> tuple:
        return (
            self.id,
            self.group,
            self.subgroup or (),
            self.normal or (),
            self.n if self.n is not None else -1,
            self.variant or "",
        )


# ---------------------------------------------------------------------------
# Per-entry evaluation context
# ---------------------------------------------------------------------------


class EntryContext:
    """Shared artifacts for all checks on one corpus group, or on a quotient
    they read, named after its group.  ``child`` keeps one such quotient
    context per name and table; the sharing is exact, as everything a
    context computes (degrees, the tensor square with its centralizer sizes,
    the tensor series from Z-tensor, the tensor class) is a function of its
    table, and a ``LimitError`` note reads the name.  Children square in
    their root's ``Squares`` session: the run's, or its own."""

    def __init__(self, spec: str, group: FiniteGroup, config: Config,
                 squares: Optional[Squares] = None) -> None:
        self.spec = spec
        self.group = group
        self.config = config
        self.squares = squares or Squares(config.max_cosets)
        self._tensor: TensorSquareData | LimitError | None = None
        self._memos: dict[str, dict] = {}

    def _memo(self, name: str, key, make: Callable):
        """``make()``, computed once per name and key; nothing is kept if it raises."""
        store = self._memos.setdefault(name, {})
        if key not in store:
            store[key] = make()
        return store[key]

    @property
    def tensor(self) -> TensorSquareData:
        """The tensor square; an overflow is enumerated once and then re-raised."""
        if self._tensor is None:
            try:
                self._tensor = tensor_square(self.group, self.squares)
            except LimitError as exc:
                self._tensor = exc
        if isinstance(self._tensor, LimitError):
            raise self._tensor
        return self._tensor

    @cached_property
    def ztensor(self) -> SubgroupHandle:
        """Z-tensor, the first term of the series ``tclass`` reads."""
        return tensor_upper_central(self.group, self.tensor, 1)

    @cached_property
    def centralizers(self) -> list[SubgroupHandle]:
        """The tensor centralizer of every element, in element order."""
        return [tensor_centralizer(self.group, self.tensor, x) for x in self.group.elements()]

    @cached_property
    def tclass(self) -> Optional[int]:
        return tensor_class(self.group, self.tensor)

    @cached_property
    def full(self) -> SubgroupHandle:
        return full_subgroup(self.group)

    @cached_property
    def pairs(self) -> list[dict]:
        """Every subgroup H with every normal subgroup N of G inside it, built
        per N with G/N's context ("quotient") and H's image there ("image")."""
        subgroups, pairs = all_subgroups(self.group), []
        for nh in normal_subgroups(self.group):
            qc, proj = self.quotient(nh)
            pairs += [{"subgroup": h, "normal": nh, "quotient": qc, "image": _image(qc, proj, h)}
                      for h in subgroups if nh <= h]
        return pairs

    def dn(self, h: SubgroupHandle, n: int) -> Fraction:
        """dn(H, G), from one commutator chain per subgroup, extended on demand."""
        return self._memo("dn", (h.elements, n), lambda: rel_n_tensor_degree(
            self.group, self.tensor, h, n, self._memo("chain", h.elements, list)
        ))

    def comm(self, h: SubgroupHandle) -> Fraction:
        return self._memo("comm", h.elements, lambda: rel_comm_degree(self.group, h))

    def d_inner(self, h: SubgroupHandle) -> Fraction:
        """Commuting probability inside a subgroup, computed in the parent
        table once per subgroup."""
        mul, elems = self.group.mul, h.elements
        return self._memo("d_inner", elems, lambda: Fraction(
            sum(1 for a in elems for b in elems if mul[a][b] == mul[b][a]), h.order * h.order
        ))

    def child(self, group: FiniteGroup) -> "EntryContext":
        """The context of a group built from this one, one per name and table."""
        return self._memo("child", (group.name, group.table_key()),
                          lambda: EntryContext(group.name, group, self.config, self.squares))

    def quotient(self, n: SubgroupHandle) -> tuple["EntryContext", tuple[int, ...]]:
        """The context of G/N and the projection onto it, once per N for every
        reader; G/N's tensor square is enumerated only when read."""

        def make():
            q, proj = quotient(self.group, n)
            return self.child(q), proj

        return self._memo("quotient", n.elements, make)

    def k_quotient(self, h: SubgroupHandle) -> "EntryContext":
        """The context of K = H / (H n Z) = HZ / Z for the normal Z-tensor Z:
        H's image in G/Z as a standalone group, shared by name and table."""

        def make():
            qc, proj = self.quotient(self.ztensor)
            return self.child(subgroup_as_group(_image(qc, proj, h))[0])

        return self._memo("k_quotient", h.elements, make)


def _image(qc: EntryContext, proj: tuple[int, ...], h: SubgroupHandle) -> SubgroupHandle:
    """H's image under ``proj`` in ``qc``'s group: a subgroup, so not checked again."""
    return SubgroupHandle._known(qc.group, tuple(sorted({proj[x] for x in h.elements})))


# ---------------------------------------------------------------------------
# Checks.  A check is its instances and one evaluator.  Most checks take
# their instances from a shared domain (once, per n, per subgroup and n, per
# pair N <= H with N normal) and keep those a filter admits; an instance
# holds the live handles of its ``subgroup`` and ``normal``, a pair also its
# ``quotient`` and ``image``.  An evaluator returns a ``Finding``, only what
# varies; ``_evaluate`` builds the record.
# ---------------------------------------------------------------------------


class Finding(NamedTuple):
    """The sides an evaluator finds, ``witness``, a callable that builds the
    witness and is called only for a record that does not hold, and, where
    they apply, the relation, a computed variant and a note."""

    lhs: Optional[Fraction]
    rhs: Fraction
    witness: Optional[Callable[[], dict]] = None
    relation: str = "le"
    variant: Optional[str] = None
    note: Optional[str] = None


def _once(ctx: EntryContext) -> list[dict]:
    return [{}]


def _per_n(ctx: EntryContext) -> list[dict]:
    return [{"n": n} for n in range(1, ctx.config.n_max + 1)]


def _per_subgroup_n(ctx: EntryContext, proper: bool = False) -> list[dict]:
    """Every subgroup, or every proper one, with every n."""
    return [
        {"subgroup": h, "n": n}
        for h in all_subgroups(ctx.group)
        if not (proper and h.order == ctx.group.order)
        for n in range(1, ctx.config.n_max + 1)
    ]


def _per_pair_n(ctx: EntryContext) -> list[dict]:
    """Every pair of ``EntryContext.pairs`` with every n."""
    return [{**pair, "n": n} for pair in ctx.pairs for n in range(1, ctx.config.n_max + 1)]


def _eval_thm_1_1(ctx: EntryContext, inst: dict) -> Finding:
    h, n = inst["subgroup"], inst["normal"]
    lhs = ctx.comm(h)
    rhs = inst["quotient"].comm(inst["image"]) * ctx.d_inner(n)
    hg = ctx._memo("hg", h.elements, lambda: commutator_subgroup(ctx.group, h, ctx.full))
    equality_case = len(n._set & hg._set) == 1
    relation, variant = ("eq", "equality") if equality_case else ("le", "inequality")
    return Finding(lhs, rhs, lambda: {
        "lhs": format_fraction(lhs),
        "rhs": format_fraction(rhs),
        "equality_case": equality_case,
    }, relation, variant)


def _gen_thm_1_2(ctx: EntryContext) -> list[dict]:
    if ctx.group.order == 1:
        return []
    return [{"variant": "lower"}, {"variant": "upper"}]


def _eval_thm_1_2(ctx: EntryContext, inst: dict) -> Finding:
    group = ctx.group
    p = smallest_prime_divisor(group.order)
    assert p is not None
    d = ctx.comm(ctx.full)
    dt = ctx.dn(ctx.full, 1)
    j2 = j2_order(group, ctx.tensor)
    zt_order = ctx.ztensor.order
    z_order = center(group).order
    if inst["variant"] == "lower":
        lhs = d / j2 + Fraction(zt_order, group.order) * (1 - Fraction(1, j2))
        rhs = dt
    else:
        lhs = dt
        rhs = d - Fraction((p - 1) * (z_order - zt_order), p * group.order)
    return Finding(lhs, rhs, lambda: {
        "tensor_degree": format_fraction(dt),
        "comm_degree": format_fraction(d),
        "j2_order": j2,
        "center_order": z_order,
        "tensor_center_order": zt_order,
        "smallest_prime": p,
    })


def _eval_thm_1_3(ctx: EntryContext, inst: dict) -> Finding:
    p = smallest_prime_divisor(ctx.group.order)
    assert p is not None
    return Finding(ctx.dn(ctx.full, 1), Fraction(1, p), lambda: {"smallest_prime": p})


def _gen_lem_2_1(ctx: EntryContext) -> list[dict]:
    mul, zt, out = ctx.group.mul, ctx.ztensor.elements, []
    for h in all_subgroups(ctx.group):
        out.append({"subgroup": h, "variant": "index-bound"})
        if len({mul[a][z] for a in h.elements for z in zt}) == ctx.group.order:
            out.append({"subgroup": h, "variant": "product-equality"})
    return out


def _eval_lem_2_1(ctx: EntryContext, inst: dict) -> Finding:
    order, h = ctx.group.order, inst["subgroup"]
    # the ratio [H : C n H] / [G : C] for the tensor centralizer C of element
    # x is |H| [C : C n H] / |G|: the worst x, the first with the largest
    # ratio or the largest distance from 1, is found in integers
    index = ctx._memo("lem-2.1", h.elements, lambda: [
        c.order // len(h._set & c._set) for c in ctx.centralizers
    ])
    if inst["variant"] == "index-bound":
        worst, relation = index.index(max(index)), "le"
    else:
        distance = [abs(h.order * i - order) for i in index]
        worst, relation = distance.index(max(distance)), "eq"
    ratio = Fraction(h.order * index[worst], order)
    return Finding(ratio, Fraction(1), lambda: {"x": worst, "ratio": format_fraction(ratio)},
                   relation)


def _eval_thm_2_2(ctx: EntryContext, inst: dict) -> Finding:
    h, n = inst["subgroup"], inst["n"]
    index = ctx.group.order // h.order
    dn_full = ctx.dn(ctx.full, n)
    rhs = ctx._memo("thm-2.2", (index, n), lambda: index ** (n + 1) * dn_full)
    return Finding(ctx.dn(h, n), rhs, lambda: {
        "index": format_fraction(Fraction(index)),
        "dn_full": format_fraction(dn_full),
    })


def _eval_thm_2_3(ctx: EntryContext, inst: dict) -> Finding:
    h, n = inst["subgroup"], inst["n"]
    lhs = ctx.dn(h, n + 1)
    kc = ctx.k_quotient(h)
    inner = kc.dn(kc.full, n)
    return Finding(lhs, kc._memo("thm-2.3", n, lambda: (1 + inner) / 2), lambda: {
        "k_order": kc.group.order,
        "k_degree": format_fraction(inner),
        "lhs_degree_index": n + 1,
    })


def _eval_thm_2_5(ctx: EntryContext, inst: dict) -> Finding:
    n = inst["n"]
    lhs = ctx.dn(ctx.full, n + 1)
    zn = tensor_upper_central(ctx.group, ctx.tensor, n)
    qc, _ = ctx.quotient(zn)
    inner = qc.dn(qc.full, 1)
    return Finding(lhs, Fraction(2**n - 1, 2**n) + inner / 2**n, lambda: {
        "zn_order": zn.order,
        "quotient_tensor_degree": format_fraction(inner),
        "lhs_degree_index": n + 1,
    })


def _eval_thm_2_6(ctx: EntryContext, inst: dict) -> Finding:
    n = inst["n"]
    return Finding(ctx.dn(ctx.full, n), Fraction(2 ** (n + 2) - 3, 2 ** (n + 2)),
                   lambda: {"tensor_class": ctx.tclass})


def _eval_lem_2_7(ctx: EntryContext, inst: dict) -> Finding:
    nc = nilpotency_class(ctx.group)
    # a group that is not nilpotent has no class: the lhs is None
    return Finding(Fraction(nc) if nc is not None else None, Fraction(inst["n"]),
                   lambda: {"tensor_class": ctx.tclass, "nilpotency_class": nc})


def _eval_thm_2_8(ctx: EntryContext, inst: dict) -> Finding:
    n = inst["n"]
    return Finding(ctx.dn(ctx.full, n), Fraction(2**n - 1, 2**n), lambda: {"center_order": 1})


def _eval_thm_3cases(ctx: EntryContext, inst: dict) -> Finding:
    h, n = inst["subgroup"], inst["n"]
    lhs = ctx.dn(h, n)
    zn = tensor_upper_central(ctx.group, ctx.tensor, n)
    witness_extra: dict = {}
    if h <= zn:
        variant = "case-i"
        rhs, relation = Fraction(1), "eq"
    else:
        kc = ctx.k_quotient(h)
        c = kc.tclass
        witness_extra = {"k_order": kc.group.order, "k_tensor_class": c}
        if c is not None and c <= n - 1:
            variant = "case-ii"
            rhs, relation = Fraction(1), "eq"
        else:
            variant = "case-iii"
            rhs, relation = Fraction(2 ** (n + 2) - 3, 2 ** (n + 2)), "le"
    return Finding(lhs, rhs, lambda: {"case": variant, **witness_extra}, relation, variant)


def _eval_thm_quot(ctx: EntryContext, inst: dict) -> Finding:
    h, n, qc = inst["subgroup"], inst["n"], inst["quotient"]
    rhs = qc.dn(inst["image"], n)
    return Finding(ctx.dn(h, n), rhs, lambda: {"quotient_order": qc.group.order})


def _eval_sanity(rhs: Fraction, ctx: EntryContext, inst: dict) -> Finding:
    """The commuting probability of G against a sanity bound."""
    return Finding(ctx.comm(ctx.full), rhs)


def _gen_ex_3_1(ctx: EntryContext) -> list[dict]:
    if ctx.spec != "S3":
        return []
    out = [{"n": n, "variant": "bound"} for n in (1, 2, 3, 4)]
    out.append({"variant": "tensor-center-trivial"})
    return out


def _eval_ex_3_1(ctx: EntryContext, inst: dict) -> Finding:
    if inst["variant"] == "tensor-center-trivial":
        return Finding(Fraction(ctx.ztensor.order), Fraction(1), relation="eq")
    n = inst["n"]
    return Finding(ctx.dn(ctx.full, n), Fraction(2**n - 1, 2**n))


def _gen_ex_3_2(ctx: EntryContext) -> list[dict]:
    if ctx.spec != "C4":
        return []
    return [{"subgroup": subgroup_generated(ctx.group, [ctx.group.power(1, 2)]), "n": 2}]


def _eval_ex_3_2(ctx: EntryContext, inst: dict) -> Finding:
    return Finding(ctx.dn(inst["subgroup"], inst["n"]), Fraction(1), relation="eq")


EX_3_3_REFERENCE = Fraction(192, 2048)


def _gen_ex_3_3(ctx: EntryContext) -> list[dict]:
    if ctx.spec != "D8":
        return []
    return [{"subgroup": subgroup_from_words(ctx.group, "a^2,a*b"), "n": 4}]


def _eval_ex_3_3(ctx: EntryContext, inst: dict) -> Finding:
    lhs = ctx.dn(inst["subgroup"], inst["n"])
    return Finding(lhs, EX_3_3_REFERENCE, relation="eq", note=DISCREPANCY_NOTE, witness=lambda: {
        "computed": format_fraction(lhs),
        "reference": "192/2048",
        "explanation": (
            "the subgroup <a^2, a*b> is abelian, so every length-4 "
            "iterated commutator is the identity and the identity pairs "
            "trivially with every element; the definition forces the "
            "value 1"
        ),
    })


class Check(NamedTuple):
    """One registry record: a check's instances (those of ``generate`` that
    ``keep`` admits), their evaluation, and whether the check reads the
    tensor square (those that do not survive its overflow)."""

    generate: Callable[[EntryContext], list[dict]]
    evaluate: Callable[[EntryContext, dict], Finding]
    needs_tensor: bool = True
    keep: Callable[[EntryContext, dict], bool] = lambda ctx, inst: True


CHECKS: dict[str, Check] = {
    "thm-1.1": Check(lambda ctx: ctx.pairs, _eval_thm_1_1, needs_tensor=False),
    "thm-1.2": Check(_gen_thm_1_2, _eval_thm_1_2),
    "thm-1.3": Check(_once, _eval_thm_1_3, keep=lambda ctx, inst: (
        not ctx.group.is_abelian() and ctx.ztensor.order == 1)),
    "lem-2.1": Check(_gen_lem_2_1, _eval_lem_2_1),
    "thm-2.2": Check(_per_subgroup_n, _eval_thm_2_2),
    "thm-2.3": Check(_per_subgroup_n, _eval_thm_2_3),
    "thm-2.5": Check(_per_n, _eval_thm_2_5),
    "thm-2.6": Check(_per_n, _eval_thm_2_6, keep=lambda ctx, inst: (
        ctx.tclass is None or ctx.tclass > inst["n"])),
    "lem-2.7": Check(_per_n, _eval_lem_2_7, keep=lambda ctx, inst: (
        ctx.tclass is not None and ctx.tclass <= inst["n"])),
    "thm-2.8": Check(_per_n, _eval_thm_2_8, keep=lambda ctx, inst: (
        ctx.group.order > 1 and center(ctx.group).order == 1)),
    "thm-3cases": Check(partial(_per_subgroup_n, proper=True), _eval_thm_3cases),
    "thm-quot": Check(_per_pair_n, _eval_thm_quot),
    "sanity-erl": Check(_once, partial(_eval_sanity, Fraction(5, 8)), needs_tensor=False,
                        keep=lambda ctx, inst: not ctx.group.is_abelian()),
    "sanity-lescot": Check(_once, partial(_eval_sanity, Fraction(1, 2)), needs_tensor=False,
                           keep=lambda ctx, inst: nilpotency_class(ctx.group) is None),
    "ex-3.1": Check(_gen_ex_3_1, _eval_ex_3_1),
    "ex-3.2": Check(_gen_ex_3_2, _eval_ex_3_2),
    "ex-3.3": Check(_gen_ex_3_3, _eval_ex_3_3),
}
ALL_CHECK_IDS = tuple(CHECKS)
THEOREM_IDS = tuple(check_id for check_id in CHECKS if not check_id.startswith("ex-"))


def _overflow(ctx: EntryContext, check_id: str) -> Optional[TheoremCheck]:
    """The one skipped record of a check that reads an overflowing tensor
    square, or None: such a check generates no instances."""
    if CHECKS[check_id].needs_tensor:
        try:
            ctx.tensor
        except LimitError as exc:
            return TheoremCheck(check_id, ctx.spec, skipped=True, note=f"exceeded-limit: {exc}")
    return None


def _instances(ctx: EntryContext, check_id: str) -> list[dict]:
    """The instances of one check on one group: those ``keep`` admits."""
    check = CHECKS[check_id]
    return [inst for inst in check.generate(ctx) if check.keep(ctx, inst)]


def _where(inst: dict) -> tuple:
    """The record fields that locate an instance: subgroup, normal and n."""
    return (
        inst["subgroup"].elements if "subgroup" in inst else None,
        inst["normal"].elements if "normal" in inst else None,
        inst.get("n"),
    )


def _holds(lhs: Fraction, rhs: Fraction, relation: str) -> bool:
    """``lhs <= rhs`` ("le") or ``lhs == rhs`` ("eq"), decided in integers:
    a Fraction compares in Python code, and both denominators are positive."""
    a, b = lhs.as_integer_ratio()
    c, d = rhs.as_integer_ratio()
    return a * d <= c * b if relation == "le" else a * d == c * b


def _evaluate(ctx: EntryContext, check_id: str, inst: dict) -> TheoremCheck:
    """The record of one instance: evaluated, or skipped when a limit is hit;
    the witness is built only for a record that does not hold."""
    where = _where(inst)
    try:
        lhs, rhs, witness, relation, variant, note = CHECKS[check_id].evaluate(ctx, inst)
        holds = lhs is not None and _holds(lhs, rhs, relation)
        if holds:
            note = witness = None
        elif witness is not None:
            witness = witness()
    except LimitError as exc:
        note = f"exceeded-limit: {exc}"
        return TheoremCheck(check_id, ctx.spec, *where, skipped=True, note=note)
    # positional, in field order
    return TheoremCheck(
        check_id, ctx.spec, *where, variant or inst.get("variant"),
        lhs, rhs, relation, holds, False, note, witness,
    )


def check_theorem(
    check_id: str, instance: dict, config: Optional[Config] = None
) -> TheoremCheck:
    """Evaluate a single check instance from scratch, in a session of its own.

    ``instance`` carries at least ``group`` (a spec string) plus whatever the
    check consumes: ``subgroup`` and ``normal`` as element-index sequences
    in any order, ``n``, ``variant``.  It is looked up among the instances
    the suite evaluates on that group; a computed variant (one the evaluator
    stamps on the record, not read from the instance) is ignored when the
    suite's instance carries none.  An instance whose hypotheses fail yields
    a skipped record, not a failure; so does one whose tensor square
    overflows, and that record keeps the caller's subgroup, normal and n.
    """
    if check_id not in CHECKS:
        raise SpecError(f"unknown check id {check_id!r}")
    spec = instance["group"]
    ctx = EntryContext(spec, group_from_spec(spec), config or Config())
    # element indices as a handle stores them: sorted, without duplicates
    subgroup, normal = (
        None if instance.get(key) is None else tuple(sorted(set(map(int, instance[key]))))
        for key in ("subgroup", "normal")
    )
    where = (subgroup, normal, instance.get("n"))
    overflow = _overflow(ctx, check_id)
    if overflow is not None:
        return overflow._replace(subgroup=where[0], normal=where[1], n=where[2])
    variant = instance.get("variant")
    for inst in _instances(ctx, check_id):
        if _where(inst) == where and inst.get("variant") in (None, variant):
            return _evaluate(ctx, check_id, inst)
    return TheoremCheck(check_id, spec, *where, skipped=True, note="hypothesis-not-met")


def evaluate_entry(
    entry: CorpusEntry, check_ids: Sequence[str], config: Config, squares: Optional[Squares] = None
) -> list[TheoremCheck]:
    """All checks for one corpus entry, in ``squares``; the unit of parallel work."""
    ctx = EntryContext(entry.spec, entry.group, config, squares)
    records = []
    for check_id in check_ids:
        overflow = _overflow(ctx, check_id)
        if overflow is not None:
            records.append(overflow)
        else:
            records += [_evaluate(ctx, check_id, inst) for inst in _instances(ctx, check_id)]
    return records


class VerificationReport(NamedTuple):
    version: str
    config: dict
    checks: list[TheoremCheck]
    summary: dict

    # the formats are in report.py, compiled on the first render, not at import
    def to_json(self) -> str:
        from .report import json_text
        return json_text(self)

    def render(self, fmt: str) -> str:
        from .report import WRITERS, _joined
        if fmt not in WRITERS:
            raise SpecError(f"unknown output format {fmt!r}")
        return _joined(WRITERS[fmt], self)


def summarize(checks: Sequence[TheoremCheck]) -> dict:
    counts = {"pass": 0, "fail": 0, "skipped": 0, "flagged": 0}
    for check in checks:
        if check.skipped:
            counts["skipped"] += 1
        elif check.note is not None:
            counts["flagged"] += 1
        elif check.holds:
            counts["pass"] += 1
        else:
            counts["fail"] += 1
    return counts


def normalize_check_ids(ids: Sequence[str] | str) -> tuple[str, ...]:
    if isinstance(ids, str):
        ids = [part.strip() for part in ids.split(",") if part.strip()]
    if list(ids) == ["all"]:
        return ALL_CHECK_IDS
    out = []
    for check_id in ids:
        if check_id == "all":
            raise SpecError("'all' cannot be combined with explicit check ids")
        if check_id not in ALL_CHECK_IDS:
            raise SpecError(f"unknown check id {check_id!r}")
        out.append(check_id)
    if not out:
        raise SpecError("no check ids given")
    return tuple(dict.fromkeys(out))


def run_suite(
    corpus: Sequence[CorpusEntry],
    check_ids: Sequence[str] | str = "all",
    config: Optional[Config] = None,
) -> VerificationReport:
    """Evaluate the requested checks on every corpus entry.

    Entries are independent; with ``config.jobs > 1`` they are evaluated in a
    process pool of at most one worker per entry, each in a ``Squares``
    session of its own, and serially in one session for the run.  The report
    is a deterministic ordered merge, so worker count never changes the
    output bytes.
    """
    config = config or Config()
    ids = normalize_check_ids(check_ids)
    if config.jobs > 1 and len(corpus) > 1:
        # imported here: loading the pool machinery is a sizeable share of
        # ``import grouptensor``, and only parallel runs need it
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts every worker at its first submit: one per entry at most
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(corpus))) as pool:
            batches = list(pool.map(evaluate_entry, corpus, repeat(ids), repeat(config)))
    else:
        squares = Squares(config.max_cosets)
        batches = [evaluate_entry(entry, ids, config, squares) for entry in corpus]
    checks = [check for batch in batches for check in batch]
    checks.sort(key=TheoremCheck.sort_key)
    return VerificationReport(
        version=__version__,
        config=config.echo(),
        checks=checks,
        summary=summarize(checks),
    )
