"""Exact degree quantities: commuting probability and tensor-triviality degrees.

Every value is an exact ``fractions.Fraction`` in lowest terms; floating
point never enters a verdict.  Decimal strings exist for display only and
are rounded half-to-even at three places.

The n-fold degree reads level n of H's commutator chain: c_k(v) counts the
k-tuples from H with left-normed commutator v, c_1 is the indicator of H and
c_(k+1)(w) = sum over v of c_k(v) #{x in H : [v, x] = w}.  Kept per subgroup,
as ``verify`` keeps it, the chain costs one step per level for every n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import SpecError
from .groups import FiniteGroup, SubgroupHandle, full_subgroup
from .tensor import TensorSquareData


def format_fraction(value: Fraction) -> str:
    """Always ``p/q``, even for whole numbers (so 1 renders as ``1/1``)."""
    return f"{value.numerator}/{value.denominator}"


def format_decimal(value: Fraction) -> str:
    """Three-place decimal string, rounded half to even."""
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    q, r = divmod(num * 1000, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, 1000)
    return f"{sign}{whole}.{frac:03d}"


def rel_comm_degree(group: FiniteGroup, h: SubgroupHandle) -> Fraction:
    """Probability that a pair from H x G commutes, exactly."""
    mul = group.mul
    hits = sum(mul[a][b] == mul[b][a] for a in h.elements for b in group.elements())
    return Fraction(hits, h.order * group.order)


def comm_degree(group: FiniteGroup) -> Fraction:
    return rel_comm_degree(group, full_subgroup(group))


def _next_level(group: FiniteGroup, h: SubgroupHandle, counts: dict[int, int]) -> dict[int, int]:
    """c_(k+1) from c_k: each v sends its mass c_k(v) to [v, x] for every x in H."""
    mul, inv, elems = group.mul, group.inv, h.elements
    nxt: dict[int, int] = {}
    for v, mass in counts.items():
        row, iv = mul[v], inv[v]
        for x in elems:
            w = mul[mul[row[x]][iv]][inv[x]]
            nxt[w] = nxt.get(w, 0) + mass
    return nxt


def rel_n_tensor_degree(
    group: FiniteGroup, data: TensorSquareData, h: SubgroupHandle, n: int,
    chain: Optional[list] = None,
) -> Fraction:
    """Probability that ``[h1, ..., hn] (x) g`` is trivial: level n of H's
    chain ``[c_1, c_2, ...]``, which is extended in place (or made afresh
    when not given), weighted by the tensor-centralizer sizes ``data.sizes``."""
    if n < 1:
        raise SpecError(f"degree index n must be at least 1, got {n}")
    chain = [] if chain is None else chain
    while len(chain) < n:
        chain.append(_next_level(group, h, chain[-1]) if chain else dict.fromkeys(h.elements, 1))
    sizes = data.sizes
    hits = sum(mass * sizes[v] for v, mass in chain[n - 1].items())
    return Fraction(hits, h.order**n * group.order)


def tensor_degree(group: FiniteGroup, data: TensorSquareData) -> Fraction:
    """Probability that a uniform pair has trivial tensor pairing."""
    return n_tensor_degree(group, data, 1)


def n_tensor_degree(group: FiniteGroup, data: TensorSquareData, n: int) -> Fraction:
    return rel_n_tensor_degree(group, data, full_subgroup(group), n)
