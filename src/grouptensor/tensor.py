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

A ``Squares`` session holds one run's ``max_cosets``, which bounds the live
cosets of an enumeration and nothing else, and memoizes squares by table.
The 2-group path needs no bound: nu(G) is a finite 2-group, so the class loop
ends, and ``tensor_square_presentation`` refuses groups above order 64.

Every result, whichever path made it, is validated for the structural facts
later computations rely on (rows and columns of the identity are trivial, the
matrix is symmetric, triviality of a pair forces the two elements to commute)
and then given its row sums, the tensor-centralizer sizes that the degrees
and Z-tensor read.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

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
    centralizers,
    derived_subgroup,
    direct_factors,
    quotient,
    series_class,
    subgroup_as_group,
    trivial_subgroup,
    upper_central_from,
)


class TensorSquareData(NamedTuple):
    """Order of the tensor square plus the pair-triviality matrix.

    ``trivial[x][y]`` is True exactly when ``x (x) y`` is the identity of the
    tensor-square group.  ``counters`` is ``(defined, peak_live,
    coincidences)`` of the enumeration it was read from (see ``CosetTable``),
    or None if the group was not enumerated.  ``sizes[x]`` is the row sum
    ``|C-tensor(x)|``, the tensor-centralizer size of x; ``Squares`` sets it
    once the matrix is validated.  Neither the matrix nor the sizes name a
    group: a session shares a square between every group with the same table.
    """

    order: int
    trivial: tuple[tuple[bool, ...], ...]
    counters: Optional[tuple[int, int, int]] = None
    sizes: Optional[tuple[int, ...]] = None


class Squares:
    """The tensor squares of one run, memoized by table, under one coset cap.

    A run (a serial ``run_suite``, one ``tensor`` or ``degree`` command) makes
    one session and has one cap, so a hit never hides a ``LimitError`` that a
    lower cap would raise.  The cap bounds enumerated squares only.  An
    overflow is not kept: each overflowing group raises under its own name.
    A session belongs to one run and the package starts no threads, so it
    takes no lock.
    """

    def __init__(self, max_cosets: int = DEFAULT_MAX_COSETS) -> None:
        if max_cosets < 1:
            raise SpecError(f"max_cosets must be at least 1, got {max_cosets}")
        self.max_cosets = max_cosets
        self._memo: dict[bytes, TensorSquareData] = {}

    def __call__(self, group: FiniteGroup) -> TensorSquareData:
        key = group.table_key()
        if key in self._memo:
            return self._memo[key]
        if group.is_abelian():
            data = TensorSquareData(*bilinear_tensor(group, group))
        elif (factors := direct_factors(group)) is not None:
            data = _product(group, *factors, self)
        elif group.order & (group.order - 1) == 0:
            data = _from_two_quotient(group)
        else:
            table = todd_coxeter(tensor_square_presentation(group), max_cosets=self.max_cosets)
            if table.status != COMPLETED:
                # a factor is named after its parent, as in C2xS3<6>
                raise LimitError(
                    f"tensor-square enumeration for {group.name} exceeded {self.max_cosets} cosets"
                )
            data = _from_table(group, table)
        _validate(group, data)
        data = self._memo[key] = data._replace(sizes=tuple(map(sum, data.trivial)))
        return data


def tensor_square(group: FiniteGroup, squares: Optional[Squares] = None) -> TensorSquareData:
    """Tensor square of ``group`` in ``squares``, or in a new session at the default cap."""
    return (squares or Squares())(group)


def _product(
    group: FiniteGroup, n: SubgroupHandle, m: SubgroupHandle, squares: Squares
) -> TensorSquareData:
    """Square of the internal direct product ``group = N x M``, with N and M
    re-indexed as groups A and K; ``pairs[g]`` is (g, a, b) with ``g = a b``."""
    (a_group, a_embed), (k_group, k_embed) = subgroup_as_group(n), subgroup_as_group(m)
    left, right = squares(a_group), squares(k_group)
    a_ab, a_proj = quotient(a_group, derived_subgroup(a_group))
    k_ab, k_proj = quotient(k_group, derived_subgroup(k_group))
    cross = bilinear_tensor(a_ab, k_ab)
    pairs = sorted(
        (group.mul[x][y], a, b) for a, x in enumerate(a_embed) for b, y in enumerate(k_embed)
    )
    # the matrices as locals: a record field is read once per cell otherwise
    at, kt, ct = left.trivial, right.trivial, cross.trivial
    trivial = tuple(
        tuple(
            at[a][a2] and kt[b][b2] and ct[a_proj[a]][k_proj[b2]] and ct[a_proj[a2]][k_proj[b]]
            for _, a2, b2 in pairs
        )
        for _, a, b in pairs
    )
    order = left.order * right.order * cross.order**2
    return TensorSquareData(order, trivial)


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
    act, m = table.action, table.generator_count // 2
    columns = [[c == image for image in _walk(tree, c, act, 0)] for c in _walk(tree, 0, act, m)]
    trivial = tuple(tuple(row) for row in zip(*columns))
    counters = (table.defined, table.peak_live, table.coincidences)
    return TensorSquareData(table.coset_count // n, trivial, counters)


def _from_two_quotient(group: FiniteGroup) -> TensorSquareData:
    """Order and matrix from nu(G) as its largest 2-quotient, for a 2-group G."""
    # imported on first use: a process that squares no 2-group never loads it
    from .pquotient import two_quotient

    presentation = tensor_square_presentation(group)
    nu = two_quotient(presentation)
    mul, letters, m = nu.mul, nu.letters(), presentation.generator_count // 2
    _, tree = spanning_tree(group)

    def act(x: int, letter: int) -> int:
        return mul(x, letters[letter])

    copies = _walk(tree, 0, act, m)
    # x (x) y maps to [x, y], so only a pair that commutes in G can be
    # trivial; each order is read, for _validate's symmetry check
    trivial = tuple(
        tuple(c >> h & 1 == 1 and mul(x, y) == mul(y, x) for h, y in enumerate(copies))
        for c, x in zip(centralizers(group), _walk(tree, 0, act, 0))
    )
    return TensorSquareData(nu.order // group.order**2, trivial)


def _walk(
    tree: tuple[tuple[int, int, int], ...], start: int, act: Callable[[int, int], int], shift: int
) -> list[int]:
    """``image[g]``: ``start`` acted on by the letters of w(g) along ``tree``
    (``spanning_tree``), or by those of w(g)^phi when ``shift`` is |X|."""
    image = [start] * (len(tree) + 1)
    for g, parent, letter in tree:
        image[g] = act(image[parent], letter + shift if letter > 0 else letter - shift)
    return image


def _validate(group: FiniteGroup, data: TensorSquareData) -> None:
    trivial, mul = data.trivial, group.mul
    if not all(trivial[0]) or not all(row[0] for row in trivial):
        raise ConsistencyError("identity pairs must be trivial")
    for x, row in enumerate(trivial):
        for y, pair in enumerate(row):
            # row y < x was read already, so an asymmetry is met as x < y
            if pair != trivial[y][x]:
                raise ConsistencyError(f"triviality matrix asymmetric at ({x}, {y})")
            if pair and mul[x][y] != mul[y][x]:
                raise ConsistencyError(f"trivial pair ({x}, {y}) does not commute in the group")


def tensor_centralizer(group: FiniteGroup, data: TensorSquareData, x: int) -> SubgroupHandle:
    """Elements whose pair with ``x`` is trivial; always a subgroup."""
    elems = [a for a in group.elements() if data.trivial[a][x]]
    try:
        return SubgroupHandle(group, elems)
    except SpecError as exc:
        raise ConsistencyError(
            f"tensor centralizer of {x} in {group.name} is not a subgroup: {exc}"
        ) from exc


def tensor_center(group: FiniteGroup, data: TensorSquareData) -> SubgroupHandle:
    """Elements whose pair with every element is trivial: those whose
    tensor-centralizer size in ``data.sizes`` is |G|."""
    elems = [a for a, size in enumerate(data.sizes) if size == group.order]
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


def tensor_upper_central(group: FiniteGroup, data: TensorSquareData, n: int) -> SubgroupHandle:
    """n-th term of the tensor upper central series (``_pullback_series``)."""
    if n < 1:
        raise ValueError("series index must be >= 1")
    series = _pullback_series(group, data)
    return series[n] if n < len(series) else series[-1]


def _pullback_series(group: FiniteGroup, data: TensorSquareData) -> tuple[SubgroupHandle, ...]:
    """[Z0 = 1, Z1 = Z-tensor, Z2, ...] up to stabilization (cached on the group).

    For n >= 1, Z(n+1)-tensor is the preimage of Z_n(G / Z-tensor), so the
    classical step of ``upper_central_from``, run in G from Z-tensor, gives
    the series.
    """
    return group.cached("tensor_ucs", lambda: upper_central_from(
        group, [trivial_subgroup(group), tensor_center(group, data)]
    ))


def tensor_class(group: FiniteGroup, data: TensorSquareData) -> Optional[int]:
    """Smallest c with Z_c-tensor = G, or None; 0 only for the trivial group."""
    return series_class(_pullback_series(group, data))
