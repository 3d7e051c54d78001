"""The tensor square of a group and the structures derived from it.

``tensor_square`` keeps only what downstream computations need: the group
order and the pairwise triviality matrix ``trivial[x][y]``, true exactly when
the pair element ``x (x) y`` is the identity.  It takes the first of four
paths that applies:

* an abelian group (read from its table) gets the integral tensor square
  from ``abelian.bilinear_tensor``;
* a group whose table is a direct product A x K (``direct_factors``) is
  decomposed (Brown, Johnson and Robertson, J. Algebra 111, 1987): its square
  is ``(A (x) A) x (A (x) K) x (K (x) A) x (K (x) K)``, the factors act
  trivially on each other, so ``A (x) K = A^ab (x)_Z K^ab``, and
  ``(a, b) (x) (a', b')`` is trivial exactly when ``a (x) a'``, ``b (x) b'``,
  ``a (x) b'`` and ``b (x) a'`` all are.  The squares of A and K, taken as
  standalone groups, come from these same four paths;
* a group of order 2^k is squared through Rocco's group nu(G)
  (``tensor_square_presentation``), which contains the tensor square as
  ``[G, G^phi]`` and has order ``|G|^2 |G (x) G|``.  For a finite p-group G,
  G (x) G is a finite p-group (Ellis, J. Algebra 111, 1987), so nu(G) is a
  finite 2-group and equals the largest 2-quotient of its presentation.
  ``pquotient.two_quotient`` computes that quotient as a consistent pc
  presentation that satisfies every relator, so its order is |nu(G)|, and
  ``_from_two_quotient`` reads ``g (x) h`` as trivial exactly when the images
  of g and h^phi commute;
* every other group is realized by enumerating the cosets of G in nu(G);
  ``_from_table`` reads the order and the matrix from the cosets.

``max_cosets`` bounds the cosets of an enumeration, and on the 2-group path
the count enumeration would reach, ``|nu(G)| / |G|``: either raises the same
``LimitError``.

Every result, whichever path made it, is validated for the structural facts
later computations rely on (rows and columns of the identity are trivial, the
matrix is symmetric, triviality of a pair forces the two elements to commute).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import product
from typing import NoReturn, Optional

from .abelian import bilinear_tensor
from .coset_enum import (
    COMPLETED,
    DEFAULT_MAX_COSETS,
    CosetTable,
    spanning_tree,
    tensor_square_presentation,
    todd_coxeter,
)
from .errors import ConsistencyError, LimitError, SpecError
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    derived_subgroup,
    direct_factors,
    iterated_commutator,
    quotient,
    series_class,
    subgroup_as_group,
    upper_central_from,
)


@dataclass(frozen=True)
class TensorSquareData:
    """Order of the tensor square plus the pair-triviality matrix.

    ``trivial[x][y]`` is True exactly when ``x (x) y`` is the identity of the
    tensor-square group.  ``table`` is the coset table it was read from, or
    None if the group was not enumerated.
    """

    parent: FiniteGroup
    order: int
    trivial: tuple[tuple[bool, ...], ...]
    table: Optional[CosetTable] = None

    def centralizer_size(self, x: int) -> int:
        return sum(self.trivial[x])


_cache_lock = threading.Lock()
_tensor_cache: dict[tuple[bytes, int], TensorSquareData] = {}


def tensor_square(
    group: FiniteGroup, max_cosets: int = DEFAULT_MAX_COSETS
) -> TensorSquareData:
    """Tensor square of ``group``; raises LimitError past ``max_cosets``.

    Only the squares read from nu(G) are bounded by ``max_cosets``: those of
    a nonabelian group that is not a direct product, or of such a factor.
    The path is read from the table alone, so results are memoized on the
    table and the bound: equal tables share one computation per process.
    ``max_cosets`` below 1 is a SpecError whichever path the group takes.
    """
    if max_cosets < 1:
        raise SpecError(f"max_cosets must be at least 1, got {max_cosets}")
    return _square(group, max_cosets)


def _square(group: FiniteGroup, max_cosets: int) -> TensorSquareData:
    key = (group.table_key(), max_cosets)
    with _cache_lock:
        hit = _tensor_cache.get(key)
    if hit is not None:
        return hit

    if group.is_abelian():
        square = bilinear_tensor(group, group)
        data = TensorSquareData(parent=group, order=square.order, trivial=square.trivial)
    elif (factors := direct_factors(group)) is not None:
        data = _product(group, *factors, max_cosets)
    elif group.order & (group.order - 1) == 0:
        data = _from_two_quotient(group, max_cosets)
    else:
        table = todd_coxeter(tensor_square_presentation(group), max_cosets=max_cosets)
        if table.status != COMPLETED:
            _overflow(group, max_cosets)
        data = _from_table(group, table)
    _validate(data)
    with _cache_lock:
        _tensor_cache.setdefault(key, data)
    return data


def _overflow(group: FiniteGroup, max_cosets: int) -> NoReturn:
    # a factor is named after its parent, as in C2xQ8<8>
    raise LimitError(f"tensor-square enumeration for {group.name} exceeded {max_cosets} cosets")


def _product(
    group: FiniteGroup, n: SubgroupHandle, m: SubgroupHandle, max_cosets: int
) -> TensorSquareData:
    """Square of the internal direct product ``group = N x M``, with N and M
    re-indexed as groups A and K; ``pairs[g]`` is (g, a, b) with ``g = a b``."""
    (a_group, a_embed), (k_group, k_embed) = subgroup_as_group(n), subgroup_as_group(m)
    left, right = _square(a_group, max_cosets), _square(k_group, max_cosets)
    a_ab, a_proj = quotient(a_group, derived_subgroup(a_group))
    k_ab, k_proj = quotient(k_group, derived_subgroup(k_group))
    cross = bilinear_tensor(a_ab, k_ab)
    pairs = sorted(
        (group.mul[x][y], a, b) for a, x in enumerate(a_embed) for b, y in enumerate(k_embed)
    )
    trivial = tuple(
        tuple(
            left.trivial[a][a2]
            and right.trivial[b][b2]
            and cross.trivial[a_proj[a]][k_proj[b2]]
            and cross.trivial[a_proj[a2]][k_proj[b]]
            for _, a2, b2 in pairs
        )
        for _, a, b in pairs
    )
    order = left.order * right.order * cross.order**2
    return TensorSquareData(parent=group, order=order, trivial=trivial)


def _from_table(group: FiniteGroup, table: CosetTable) -> TensorSquareData:
    """Order and matrix from the cosets of G in nu(G).

    nu(G) maps onto G x G with ``[G, G^phi]`` in the kernel, so G meets
    ``[G, G^phi]`` trivially and there are ``|G| |G (x) G|`` cosets.  And
    ``g (x) h`` is trivial exactly when ``[h^phi, g]``, or equivalently
    ``h^phi g h^-phi``, lies in G: when g fixes the coset ``G h^phi``.
    """
    n = group.order
    if table.coset_count % n:
        raise ConsistencyError(f"{table.coset_count} cosets is not a multiple of |G| = {n}")
    _, tree = spanning_tree(group)

    def walk(start: int, shift: int) -> list[int]:
        # image[g]: coset ``start`` times w(g), or times w(g)^phi when shift is |X|
        image = [start] * n
        for g, parent, letter in tree:
            step = letter + shift if letter > 0 else letter - shift
            image[g] = table.action(image[parent], step)
        return image

    columns = [[c == image for image in walk(c, 0)] for c in walk(0, table.generator_count // 2)]
    trivial = tuple(tuple(row) for row in zip(*columns))
    return TensorSquareData(group, table.coset_count // n, trivial, table)


def _from_two_quotient(group: FiniteGroup, max_cosets: int) -> TensorSquareData:
    """Order and matrix from nu(G) as its largest 2-quotient, for a 2-group G.

    Enumeration would need ``|nu(G)| / |G|`` cosets, so the quotient is
    abandoned once it has more than ``max_cosets * |G|`` elements.
    """
    # imported on first use: a process that squares no 2-group never loads it
    from .pquotient import two_quotient

    presentation = tensor_square_presentation(group)
    nu = two_quotient(presentation, (max_cosets * group.order).bit_length() - 1)
    if nu is None:
        _overflow(group, max_cosets)
    mul, letters, m = nu.mul, nu.letters(), presentation.generator_count // 2
    _, tree = spanning_tree(group)

    def walk(shift: int) -> list[int]:
        # image[g]: the image of w(g), or of w(g)^phi when shift is |X|
        image = [0] * group.order
        for g, parent, letter in tree:
            image[g] = mul(image[parent], letters[letter + shift if letter > 0 else letter - shift])
        return image

    copies = walk(m)
    trivial = tuple(tuple(mul(x, y) == mul(y, x) for y in copies) for x in walk(0))
    return TensorSquareData(group, nu.order // group.order**2, trivial)


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
    """n-th term of the tensor upper central series (``_pullback_series``).

    For n <= 3 the direct definition (all tuples ``[a, x1, ..., x(n-1)] (x) xn``
    trivial) is evaluated as well, once per group and n, and any mismatch is
    a hard error.
    """
    if n < 1:
        raise ValueError("series index must be >= 1")
    series = _pullback_series(group, data)
    term = series[n] if n < len(series) else series[-1]
    # the series is cached on the group, so one cross-check per term suffices
    checked = group.cached("tensor_ucs_checked", set)
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
) -> tuple[SubgroupHandle, ...]:
    """[Z0 = 1, Z1 = Z-tensor, Z2, ...] up to stabilization (cached on the group).

    For n >= 1, Z(n+1)-tensor is the preimage of Z_n(G / Z-tensor) under the
    projection.  The preimage of Z_k(G/N) is {a : [a, g] lies in the preimage
    of Z_(k-1)(G/N) for all g}, so the classical step, run in G from
    Z-tensor, gives the series.
    """
    return group.cached("tensor_ucs", lambda: upper_central_from(
        group, [SubgroupHandle(group, (0,)), tensor_center(group, data)]
    ))


def _direct_tensor_central(
    group: FiniteGroup, data: TensorSquareData, n: int
) -> tuple[int, ...]:
    tails = list(product(group.elements(), repeat=n - 1))
    return tuple(
        a
        for a in group.elements()
        if all(all(data.trivial[iterated_commutator(group, (a,) + tail)]) for tail in tails)
    )


def tensor_class(group: FiniteGroup, data: TensorSquareData) -> Optional[int]:
    """Smallest c with Z_c-tensor = G, or None; 0 only for the trivial group."""
    return series_class(_pullback_series(group, data))
