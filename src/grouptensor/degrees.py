"""Exact degree quantities: commuting probability and tensor-triviality degrees.

Every value is an exact ``fractions.Fraction`` in lowest terms; floating
point never enters a verdict.  Decimal strings exist for display only and
are rounded half-to-even at three places.

The n-fold degree runs a dynamic program over the distribution of
left-normed commutators.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SpecError
from .groups import FiniteGroup, SubgroupHandle, commutator, full_subgroup
from .tensor import TensorSquareData


def format_fraction(value: Fraction) -> str:
    """Always ``p/q``, even for whole numbers (so 1 renders as ``1/1``)."""
    return f"{value.numerator}/{value.denominator}"


def format_decimal(value: Fraction, places: int = 3) -> str:
    """Fixed-point decimal string, rounded half to even."""
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scale = 10**places
    q, r = divmod(num * scale, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def rel_comm_degree(group: FiniteGroup, h: SubgroupHandle) -> Fraction:
    """Probability that a pair from H x G commutes, exactly."""
    mul = group.mul
    hits = sum(
        1 for a in h.elements for b in group.elements() if mul[a][b] == mul[b][a]
    )
    return Fraction(hits, h.order * group.order)


def comm_degree(group: FiniteGroup) -> Fraction:
    return rel_comm_degree(group, full_subgroup(group))


def commutator_distribution(
    group: FiniteGroup, h: SubgroupHandle, n: int
) -> dict[int, int]:
    """Counts of n-tuples from H by their left-normed commutator [x1, ..., xn].

    Level 1 is the indicator of H; level k+1 sends mass c_k(v) to [v, x] for
    every x in H.  Iterated commutators of subgroup elements stay in the
    subgroup, so the support never leaves H, and the counts sum to |H|^n.
    Keys are in no particular order.
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


def rel_n_tensor_degree(
    group: FiniteGroup, data: TensorSquareData, h: SubgroupHandle, n: int
) -> Fraction:
    """Probability that ``[h1, ..., hn] (x) g`` is trivial, via the distribution."""
    dist = commutator_distribution(group, h, n)
    hits = sum(mass * data.centralizer_size(v) for v, mass in dist.items())
    return Fraction(hits, h.order**n * group.order)


def tensor_degree(group: FiniteGroup, data: TensorSquareData) -> Fraction:
    """Probability that a uniform pair has trivial tensor pairing."""
    hits = sum(data.centralizer_size(x) for x in group.elements())
    return Fraction(hits, group.order**2)


def n_tensor_degree(group: FiniteGroup, data: TensorSquareData, n: int) -> Fraction:
    return rel_n_tensor_degree(group, data, full_subgroup(group), n)
