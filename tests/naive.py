"""Two oracles for the n-fold relative tensor degree, which the commutator
chain of ``degrees.rel_n_tensor_degree`` is tested against: direct tuple
enumeration, and the commutator distribution rebuilt from level 1 for each n.
Also the element-wise group helpers the oracles and tests read, which the
package itself does not need: the iterated commutator, the centralizer,
normality by conjugating with every element, K = H / (H n Z) quotiented
inside H, the exponent, and Z-tensor from all rows of the triviality matrix.
And the all-pairs forms of what the package reads from its centralizer
table or from generators: the center, abelianness, d(H, G), the commuting
probability inside a subgroup, the upper central step over every g, [H, G]
from all |H| |G| commutators and [A, B] from all |A| |B|."""

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Sequence

from grouptensor import (
    FiniteGroup,
    LimitError,
    SpecError,
    SubgroupHandle,
    TensorSquareData,
    commutator,
    quotient,
    subgroup_generated,
)
from grouptensor.groups import full_subgroup, subgroup_as_group

NAIVE_TUPLE_LIMIT = 10**7


def iterated_commutator(group: FiniteGroup, xs: Sequence[int]) -> int:
    """Left-normed [x1, ..., xk]; a single element is returned unchanged."""
    if not xs:
        raise ValueError("iterated commutator needs at least one element")
    acc = xs[0]
    for x in xs[1:]:
        acc = commutator(group, acc, x)
    return acc


def centralizer(group: FiniteGroup, x: int) -> SubgroupHandle:
    mul = group.mul
    return SubgroupHandle(
        group, (a for a in group.elements() if mul[a][x] == mul[x][a])
    )


def center_all_pairs(group: FiniteGroup) -> tuple[int, ...]:
    """Z(G): the elements that commute with every element."""
    mul = group.mul
    return tuple(
        a for a in group.elements() if all(mul[a][x] == mul[x][a] for x in group.elements())
    )


def is_abelian_all_pairs(group: FiniteGroup) -> bool:
    return len(center_all_pairs(group)) == group.order


def rel_comm_degree_all_pairs(group: FiniteGroup, h: SubgroupHandle) -> Fraction:
    """d(H, G): the pairs from H x G that commute, over |H| |G|."""
    mul = group.mul
    hits = sum(mul[a][b] == mul[b][a] for a in h.elements for b in group.elements())
    return Fraction(hits, h.order * group.order)


def d_inner_all_pairs(h: SubgroupHandle) -> Fraction:
    """The commuting probability inside H: the pairs from H x H that commute."""
    mul = h.parent.mul
    hits = sum(mul[a][b] == mul[b][a] for a in h.elements for b in h.elements)
    return Fraction(hits, h.order**2)


def upper_central_from_all_g(
    group: FiniteGroup, series: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """``series`` extended by Z(i+1) = {a : [a, g] in Z(i) for every g in G}
    until a step adds nothing."""
    series = list(series)
    while True:
        prev = set(series[-1])
        nxt = tuple(
            a for a in group.elements()
            if all(commutator(group, a, g) in prev for g in group.elements())
        )
        if nxt == series[-1]:
            return series
        series.append(nxt)


def commutator_subgroup(
    group: FiniteGroup, a: SubgroupHandle, b: SubgroupHandle
) -> SubgroupHandle:
    """Subgroup generated by all [x, y] with x in a, y in b."""
    return subgroup_generated(
        group, {commutator(group, x, y) for x in a.elements for y in b.elements}
    )


def commutator_with_group_all_pairs(group: FiniteGroup, h: SubgroupHandle) -> tuple[int, ...]:
    """[H, G]: the subgroup generated by [x, g] for every x in H and g in G."""
    return commutator_subgroup(group, h, full_subgroup(group)).elements


def exponent(group: FiniteGroup) -> int:
    """The least common multiple of the element orders."""
    return lcm(*map(group.element_order, group.elements()))


def tensor_center_all_rows(group: FiniteGroup, data: TensorSquareData) -> tuple[int, ...]:
    """Z-tensor(G): the elements whose pair with every element is trivial."""
    return tuple(a for a in group.elements() if all(data.trivial[a]))


def is_normal(h: SubgroupHandle) -> bool:
    """g N g^-1 is inside N for every g in G, not only for generators."""
    g = h.parent
    return all(g.mul[g.mul[x][n]][g.inv[x]] in h for x in g.elements() for n in h.elements)


def k_quotient(h: SubgroupHandle, z: SubgroupHandle) -> FiniteGroup:
    """H / (H n Z) for a normal subgroup Z of H's parent: H taken as a
    standalone group, quotiented by the intersection in H's own indices."""
    hgrp, embed = subgroup_as_group(h)
    return quotient(hgrp, SubgroupHandle(hgrp, (i for i, e in enumerate(embed) if e in z)))[0]


def rel_n_tensor_degree_naive(
    group: FiniteGroup, data: TensorSquareData, h: SubgroupHandle, n: int
) -> Fraction:
    """Probability that ``[h1, ..., hn] (x) g`` is trivial, by enumerating tuples."""
    if n < 1:
        raise SpecError(f"degree index n must be at least 1, got {n}")
    work = h.order**n * group.order
    if work > NAIVE_TUPLE_LIMIT:
        raise LimitError(f"naive enumeration of {work} tuples refused")
    trivial = data.trivial
    hits = 0
    for tup in product(h.elements, repeat=n):
        v = iterated_commutator(group, tup)
        row = trivial[v]
        for g in group.elements():
            if row[g]:
                hits += 1
    return Fraction(hits, work)


def commutator_distribution(
    group: FiniteGroup, h: SubgroupHandle, n: int
) -> dict[int, int]:
    """Counts of n-tuples from H by their left-normed commutator [x1, ..., xn].

    Level 1 is the indicator of H; level k+1 sends mass c_k(v) to [v, x] for
    every x in H.  Keys are in no particular order.
    """
    if n < 1:
        raise SpecError(f"degree index n must be at least 1, got {n}")
    counts = {v: 1 for v in h.elements}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for v, mass in counts.items():
            for x in h.elements:
                w = commutator(group, v, x)
                nxt[w] = nxt.get(w, 0) + mass
        counts = nxt
    return counts


def rel_n_tensor_degree_distribution(
    group: FiniteGroup, data: TensorSquareData, h: SubgroupHandle, n: int
) -> Fraction:
    """The degree read from ``commutator_distribution``, built from level 1."""
    trivial = data.trivial
    hits = sum(mass * sum(trivial[v]) for v, mass in commutator_distribution(group, h, n).items())
    return Fraction(hits, h.order**n * group.order)
