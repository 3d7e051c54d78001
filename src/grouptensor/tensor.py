"""The tensor square of a group and the structures derived from it.

``tensor_square`` realizes the tensor square concretely by enumerating the
all-pairs presentation, then keeps only what downstream computations need:
the group order and the pairwise triviality matrix ``trivial[x][y]``, true
exactly when the pair element ``x (x) y`` is the identity.  Construction
validates the structural facts every later computation relies on (rows and
columns of the identity are trivial, the matrix is symmetric, triviality of
a pair forces the two elements to commute).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from .coset_enum import (
    COMPLETED,
    DEFAULT_MAX_COSETS,
    CosetTable,
    generator_element,
    tensor_square_presentation,
    todd_coxeter,
)
from .errors import ConsistencyError, LimitError, SpecError
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    center,
    derived_subgroup,
    iterated_commutator,
    quotient,
    upper_central_series,
)


@dataclass(frozen=True)
class TensorSquareData:
    """Order of the tensor square plus the pair-triviality matrix.

    ``trivial[x][y]`` is True exactly when ``x (x) y`` is the identity of the
    enumerated tensor-square group.
    """

    parent: FiniteGroup
    order: int
    trivial: tuple[tuple[bool, ...], ...]

    def centralizer_size(self, x: int) -> int:
        return sum(self.trivial[x])


_cache_lock = threading.Lock()
_tensor_cache: dict[tuple[bytes, int], TensorSquareData] = {}


def tensor_square(
    group: FiniteGroup, max_cosets: int = DEFAULT_MAX_COSETS
) -> TensorSquareData:
    """Tensor square of ``group``; raises LimitError if enumeration overflows.

    Results are memoized on the multiplication table, so structurally equal
    groups share one enumeration per process.
    """
    key = (group.table_key(), max_cosets)
    with _cache_lock:
        hit = _tensor_cache.get(key)
    if hit is not None:
        return hit

    table = todd_coxeter(tensor_square_presentation(group), max_cosets=max_cosets)
    if table.status != COMPLETED:
        raise LimitError(
            f"tensor-square enumeration for {group.name} exceeded "
            f"{max_cosets} cosets"
        )
    data = _from_table(group, table)
    _validate(data)
    with _cache_lock:
        _tensor_cache.setdefault(key, data)
    return data


def _from_table(group: FiniteGroup, table: CosetTable) -> TensorSquareData:
    n = group.order
    trivial = tuple(
        tuple(generator_element(table, g * n + x) == 0 for x in range(n)) for g in range(n)
    )
    return TensorSquareData(parent=group, order=table.coset_count, trivial=trivial)


def _validate(data: TensorSquareData) -> None:
    group = data.parent
    n = group.order
    trivial = data.trivial
    for x in range(n):
        if not trivial[0][x] or not trivial[x][0]:
            raise ConsistencyError("identity pairs must be trivial")
    for x in range(n):
        for y in range(x + 1, n):
            if trivial[x][y] != trivial[y][x]:
                raise ConsistencyError(f"triviality matrix asymmetric at ({x}, {y})")
    mul = group.mul
    for x in range(n):
        for y in range(n):
            if trivial[x][y] and mul[x][y] != mul[y][x]:
                raise ConsistencyError(
                    f"trivial pair ({x}, {y}) does not commute in the group"
                )


def tensor_centralizer(
    group: FiniteGroup, data: TensorSquareData, x: int
) -> SubgroupHandle:
    """Elements whose pair with ``x`` is trivial; always a subgroup."""
    elems = [a for a in group.elements() if data.trivial[a][x]]
    try:
        return SubgroupHandle(group, elems)
    except SpecError as exc:
        raise ConsistencyError(
            f"tensor centralizer of {x} in {group.name} is not a subgroup: {exc}"
        ) from exc


def tensor_center(group: FiniteGroup, data: TensorSquareData) -> SubgroupHandle:
    """Elements whose pair with every element is trivial."""
    elems = [a for a in group.elements() if all(data.trivial[a])]
    try:
        return SubgroupHandle(group, elems)
    except SpecError as exc:
        raise ConsistencyError(f"tensor center of {group.name} is not a subgroup") from exc


def j2_order(group: FiniteGroup, data: TensorSquareData) -> int:
    """Order of the kernel of the commutator epimorphism onto the derived subgroup."""
    derived = derived_subgroup(group)
    if data.order % derived.order != 0:
        raise ConsistencyError(
            f"|tensor square| = {data.order} is not divisible by |G'| = {derived.order}"
        )
    return data.order // derived.order


def tensor_upper_central(
    group: FiniteGroup, data: TensorSquareData, n: int
) -> SubgroupHandle:
    """n-th term of the tensor upper central series.

    Computed by pulling the classical (n-1)-th center of G / Z-tensor back
    through the projection.  For n <= 3 the direct definition (all tuples
    ``[a, x1, ..., x(n-1)] (x) xn`` trivial) is evaluated as well, once per
    group and n, and any mismatch is a hard error.
    """
    if n < 1:
        raise ValueError("series index must be >= 1")
    series = _pullback_series(group, data)
    term = series[n] if n < len(series) else series[-1]
    # the series is cached on the group, so one cross-check per term suffices
    checked = group._cache.setdefault("tensor_ucs_checked", set())
    if n <= 3 and n not in checked:
        direct = _direct_tensor_central(group, data, n)
        if direct != term.elements:
            witness = sorted(set(direct) ^ set(term.elements))
            raise ConsistencyError(
                f"tensor central term {n} mismatch for {group.name}: "
                f"pullback vs direct differ at elements {witness}"
            )
        checked.add(n)
    return term


def _pullback_series(
    group: FiniteGroup, data: TensorSquareData
) -> list[SubgroupHandle]:
    """[Z0 = 1, Z1 = Z-tensor, Z2, ...] up to stabilization (cached on the group)."""
    cached = group._cache.get("tensor_ucs")
    if cached is not None:
        return list(cached)
    zt = tensor_center(group, data)
    q, proj = quotient(group, zt)
    classical = upper_central_series(q)  # Z0(Q) = 1, Z1(Q) = Z(Q), ...
    series = [SubgroupHandle(group, (0,))]
    for k in range(1, len(classical) + 1):
        img = classical[k - 1] if k - 1 < len(classical) else classical[-1]
        pulled = tuple(g for g in group.elements() if proj[g] in img)
        series.append(SubgroupHandle(group, pulled))
    group._cache["tensor_ucs"] = tuple(series)
    return series


def _direct_tensor_central(
    group: FiniteGroup, data: TensorSquareData, n: int
) -> tuple[int, ...]:
    from itertools import product as iproduct

    members = []
    for a in group.elements():
        ok = True
        for tail in iproduct(group.elements(), repeat=n - 1):
            v = iterated_commutator(group, (a,) + tail)
            if not all(data.trivial[v]):
                ok = False
                break
        if ok:
            members.append(a)
    return tuple(members)


def tensor_class(group: FiniteGroup, data: TensorSquareData) -> Optional[int]:
    """Smallest c with Z_c-tensor = G, or None; 0 only for the trivial group."""
    if group.order == 1:
        return 0
    series = _pullback_series(group, data)
    for c, term in enumerate(series):
        if term.order == group.order:
            return c
    return None


def tensor_summary(group: FiniteGroup, data: TensorSquareData) -> dict:
    """The headline numbers in one place (used by the command line front end)."""
    return {
        "tensor_square_order": data.order,
        "j2_order": j2_order(group, data),
        "tensor_center_order": tensor_center(group, data).order,
        "tensor_class": tensor_class(group, data),
        "center_order": center(group).order,
    }
