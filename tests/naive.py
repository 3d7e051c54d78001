"""Two oracles for the n-fold relative tensor degree, which the commutator
chain of ``degrees.rel_n_tensor_degree`` is tested against: direct tuple
enumeration, and the commutator distribution rebuilt from level 1 for each n.
Also the element-wise group helpers the oracles and tests read, which the
package itself does not need: the iterated commutator, the centralizer,
normality by conjugating with every element, K = H / (H n Z) quotiented
inside H, the center by the all-pairs scan, [H, G] from all |H| |G|
commutators, the exponent, and Z-tensor from all rows of the triviality
matrix."""

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
from grouptensor.groups import subgroup_as_group

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


def commutator_with_group_all_pairs(group: FiniteGroup, h: SubgroupHandle) -> tuple[int, ...]:
    """[H, G]: the subgroup generated by [x, g] for every x in H and g in G."""
    return subgroup_generated(
        group, {commutator(group, x, g) for x in h.elements for g in group.elements()}
    ).elements


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
