"""Direct tuple enumeration of the n-fold relative tensor degree: the
independent oracle the degree dynamic program is tested against."""

from fractions import Fraction
from itertools import product

from grouptensor import (
    FiniteGroup,
    LimitError,
    SpecError,
    SubgroupHandle,
    TensorSquareData,
    iterated_commutator,
)

NAIVE_TUPLE_LIMIT = 10**7


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
