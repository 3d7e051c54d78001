"""Group spec strings ("D8", "C2xC2", "E2^3") and subgroup word parsing.

Grammar, whitespace-insensitive::

    spec    := term { "x" term }
    term    := "C" int | "D" int | "Q" int | "S" int | "A" int | "E" int "^" int

``D`` takes the total group order (D8 is the dihedral group with eight
elements); ``Q`` is 8 or 16; ``E p^k`` is elementary abelian.  Subgroup
arguments are comma-separated words over the group's generator labels,
e.g. ``"a^2,a*b"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SpecError
from .groups import (
    HARD_MAX_ORDER,
    FiniteGroup,
    GroupWord,
    SubgroupHandle,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    quaternion,
    subgroup_generated,
    symmetric,
)

_TERM_RE = re.compile(r"([CDQSAE])(\d+)(?:\^(\d+))?")


@dataclass(frozen=True)
class GroupSpec:
    """A parsed spec: one or more named-family terms joined by direct product."""

    terms: tuple[tuple[str, int, int | None], ...]

    def render(self) -> str:
        parts = []
        for family, num, power in self.terms:
            parts.append(f"{family}{num}" + (f"^{power}" if power is not None else ""))
        return "x".join(parts)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string; raises SpecError with a position on bad syntax."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise SpecError("empty group spec")
    terms = []
    pos = 0
    while True:
        match = _TERM_RE.match(compact, pos)
        if not match:
            raise SpecError(
                f"bad group spec {text!r}: expected a family term at position {pos}"
            )
        family, num, power = match.group(1), int(match.group(2)), match.group(3)
        if family == "E":
            if power is None:
                raise SpecError(
                    f"bad group spec {text!r}: elementary abelian needs p^k at position {pos}"
                )
            terms.append((family, num, int(power)))
        else:
            if power is not None:
                raise SpecError(
                    f"bad group spec {text!r}: '^' only applies to E terms at position {pos}"
                )
            terms.append((family, num, None))
        pos = match.end()
        if pos == len(compact):
            break
        if compact[pos] not in "xX":
            raise SpecError(
                f"bad group spec {text!r}: expected 'x' at position {pos}"
            )
        pos += 1
    return GroupSpec(terms=tuple(terms))


def _build_term(family: str, num: int, power: int | None, max_order: int) -> FiniteGroup:
    """One term, refused before it is built if its order is above ``max_order``.

    C, D and Q have order ``num``.  For p >= 2, p^k exceeds ``max_order``
    once k passes its bit length, so E is refused without forming a huge
    power.  S and A are built first, as their constructors refuse a degree
    above 5 before they allocate.
    """
    if family == "E":
        assert power is not None
        order, size = num ** min(power, max_order.bit_length() + 1), f"{num}^{power}"
    elif family in "CDQ":
        order = size = num
    else:
        group = symmetric(num) if family == "S" else alternating(num)
        order = size = group.order
    if order > max_order:
        raise SpecError(f"term {family}{num} has order {size}, above the max {max_order}")
    if family == "E":
        return elementary_abelian(num, power)
    if family in "CDQ":
        return {"C": cyclic, "D": dihedral, "Q": quaternion}[family](num)
    return group


def build_group(spec: GroupSpec, max_order: int = HARD_MAX_ORDER) -> FiniteGroup:
    """Build the group a spec describes, with canonical generator labels.

    Single-term specs keep the family's bare labels (``a``, ``b``, ``s1``,
    ``e1``, ...); in products each term's labels get the 1-based term position
    appended, so "C2xC4" has generators ``a1`` and ``a2``.  Each term and
    each partial product above ``max_order`` is a SpecError.
    """
    groups = [_build_term(f, n, p, max_order) for f, n, p in spec.terms]
    if len(groups) == 1:
        built = groups[0]
    else:
        relabeled = [
            g.with_labels({f"{lbl}{i + 1}": idx for lbl, idx in g.generator_labels.items()})
            for i, g in enumerate(groups)
        ]
        built = relabeled[0]
        for g in relabeled[1:]:
            built = direct_product(built, g, max_order=max_order)
    built.name = spec.render()
    return built


def group_from_spec(text: str, max_order: int = HARD_MAX_ORDER) -> FiniteGroup:
    return build_group(parse_group_spec(text), max_order=max_order)


_WORD_FACTOR_RE = re.compile(r"([a-z][a-z0-9]*)(?:\^(-?\d+))?")


def parse_word(text: str) -> GroupWord:
    """Parse one word like ``a^2*b`` into (label, exponent) factors."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise SpecError("empty generator word")
    factors = []
    pos = 0
    while True:
        match = _WORD_FACTOR_RE.match(compact, pos)
        if not match:
            raise SpecError(f"bad word {text!r}: expected a label at position {pos}")
        label, exp = match.group(1), match.group(2)
        factors.append((label, int(exp) if exp is not None else 1))
        pos = match.end()
        if pos == len(compact):
            break
        if compact[pos] != "*":
            raise SpecError(f"bad word {text!r}: expected '*' at position {pos}")
        pos += 1
    return GroupWord(factors=tuple(factors))


def parse_words(text: str) -> list[GroupWord]:
    """Comma-separated words."""
    parts = [p for p in text.split(",")]
    if not any(p.strip() for p in parts):
        raise SpecError("empty word list")
    return [parse_word(p) for p in parts if p.strip()]


def subgroup_from_words(group: FiniteGroup, text: str) -> SubgroupHandle:
    """Subgroup generated by comma-separated words over the group's labels."""
    gens = [word.evaluate(group) for word in parse_words(text)]
    return subgroup_generated(group, gens)
