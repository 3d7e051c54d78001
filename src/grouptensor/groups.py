"""Concrete finite groups as multiplication tables, with 0-based element indices.

Conventions used throughout the package:

* element 0 is the identity;
* ``[x, y] = x y x^-1 y^-1`` and ``^g n = g n g^-1``;
* iterated commutators are left-normed: ``[x1, ..., xk] = [[x1, ..., x(k-1)], xk]``;
* groups are immutable once constructed and safe to share between workers.
"""

from __future__ import annotations

from itertools import compress, permutations
from operator import eq
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TypeVar

from .errors import SpecError

# The default order bound for building groups from specs and direct products;
# a caller may pass a larger one.
HARD_MAX_ORDER = 64

T = TypeVar("T")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``mul[i][j]`` is the index of the product of elements ``i`` and ``j``.
    Construction validates it: a Latin square with identity 0 is a group
    exactly when Light's test passes on its ``generators``.  Structure, such
    as a direct-product decomposition, is read from the table alone.
    """

    __slots__ = ("order", "mul", "inv", "name", "generator_labels", "_cache")

    def __init__(
        self,
        mul: Sequence[Sequence[int]],
        name: str = "G",
        generator_labels: Optional[dict[str, int]] = None,
    ) -> None:
        n = len(mul)
        if n == 0:
            raise SpecError("a group needs at least the identity element")
        table = tuple(tuple(int(x) for x in row) for row in mul)
        _validate_table(table, n)
        self.order = n
        self.mul = table
        self.name = name
        self.generator_labels = dict(generator_labels) if generator_labels else {}
        self._cache: dict = {}
        _check_associative(table, generators(self))
        # in an associative Latin square with identity, right inverses are two-sided
        self.inv = tuple(row.index(0) for row in table)

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[a], -k)
        acc = 0
        base = a
        while k:
            if k & 1:
                acc = self.mul[acc][base]
            base = self.mul[base][base]
            k >>= 1
        return acc

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.mul[x][a]
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def cached(self, key: str, make: Callable[[], T]) -> T:
        """``make()``, computed once per group and key; nothing is kept if it raises."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def is_abelian(self) -> bool:
        gens = generators(self)  # commuting is closed under products
        return all(self.mul[x][y] == self.mul[y][x] for x in gens for y in gens)

    @classmethod
    def _known(
        cls, table: tuple[tuple[int, ...], ...], name: str, inv: Optional[tuple[int, ...]] = None
    ) -> "FiniteGroup":
        """A group on a table built inside the package from one already
        known to be a group's, so not validated again."""
        g = cls.__new__(cls)
        g.order = len(table)
        g.mul = table
        g.inv = inv if inv is not None else tuple(row.index(0) for row in table)
        g.name = name
        g.generator_labels = {}
        g._cache = {}
        return g

    def with_labels(self, labels: dict[str, int]) -> "FiniteGroup":
        """Same group, different generator labels (tables are shared)."""
        g = FiniteGroup._known(self.mul, self.name, self.inv)
        g.generator_labels = dict(labels)
        return g

    def table_key(self) -> bytes:
        """Canonical byte key of the multiplication table (used for memo caches)."""
        return self.cached("table_key", lambda: b"".join(
            bytes([x]) if self.order <= 256 else x.to_bytes(2, "big")
            for row in self.mul
            for x in row
        ))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _validate_table(table: tuple[tuple[int, ...], ...], n: int) -> None:
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n or frozenset(row) != full:
            raise SpecError(f"multiplication table row {i} is not a permutation")
    for j in range(n):
        if frozenset(table[i][j] for i in range(n)) != full:
            raise SpecError(f"multiplication table column {j} is not a permutation")
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            raise SpecError("element 0 is not a two-sided identity")


def _check_associative(table: tuple[tuple[int, ...], ...], gens: Iterable[int]) -> None:
    """Light's test: (x s) y = x (s y) for all x, y and each s in ``gens``.
    The s that pass are closed under products, (x ab) y = (x a)(b y) = x ((ab) y),
    so if ``gens`` generate the table, it passes exactly when that is associative."""
    for s in gens:
        for x, row in enumerate(table):
            if tuple(map(row.__getitem__, table[s])) != table[row[s]]:
                raise SpecError(f"multiplication is not associative at ({x}, {s}, y) for some y")


class SubgroupHandle:
    """A subgroup of a parent group, stored as a strictly increasing index tuple."""

    __slots__ = ("parent", "elements", "_set")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]) -> None:
        elems = tuple(sorted(set(int(x) for x in elements)))
        if not elems or elems[0] != 0:
            raise SpecError("subgroup must contain the identity")
        eset = frozenset(elems)
        # a finite subset with the identity that is closed under products is a subgroup
        for a in elems:
            row = parent.mul[a]
            for b in elems:
                if row[b] not in eset:
                    raise SpecError(f"subgroup not closed under product at ({a}, {b})")
        self.parent = parent
        self.elements = elems
        self._set = eset

    @classmethod
    def _known(cls, parent: FiniteGroup, elements: tuple[int, ...]) -> "SubgroupHandle":
        """A handle on a sorted tuple built inside the package from one known
        to be a subgroup's, so not checked again."""
        h = cls.__new__(cls)
        h.parent, h.elements, h._set = parent, elements, frozenset(elements)
        return h

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._set

    def __le__(self, other: "SubgroupHandle") -> bool:
        return self._set <= other._set

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubgroupHandle)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def is_normal(self) -> bool:
        """s N s^-1 <= N for each s in ``generators``: exactly when N is normal,
        as then s N s^-1 = N = s^-1 N s, and products of generators are all of G."""
        g = self.parent
        return all(
            g.mul[g.mul[s][h]][g.inv[s]] in self._set
            for s in generators(g)
            for h in self.elements
        )

    def __repr__(self) -> str:
        return f"SubgroupHandle(order={self.order}, of={self.parent.name!r})"


class GroupWord(NamedTuple):
    """A word over named generators: a sequence of (label, exponent) factors."""

    factors: tuple[tuple[str, int], ...]

    def evaluate(self, group: FiniteGroup) -> int:
        labels = group.generator_labels
        acc = 0
        for label, exp in self.factors:
            if label not in labels:
                raise SpecError(
                    f"group {group.name!r} has no generator labelled {label!r}"
                )
            acc = group.mul[acc][group.power(labels[label], exp)]
        return acc

    def render(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for label, exp in self.factors:
            parts.append(label if exp == 1 else f"{label}^{exp}")
        return "*".join(parts)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise SpecError(f"cyclic group order must be >= 1, got {n}")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = {"a": 1} if n >= 2 else {}
    return FiniteGroup(mul, name=f"C{n}", generator_labels=labels)


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group named by its total order (D8 has eight elements)."""
    if order < 4 or order % 2:
        raise SpecError(f"dihedral order must be an even number >= 4, got {order}")
    m = order // 2

    # index = i + m*j encodes a^i b^j, with b a^i = a^-i b
    def mul_pair(x: int, y: int) -> int:
        i1, j1 = x % m, x // m
        i2, j2 = y % m, y // m
        i = (i1 + (i2 if j1 == 0 else -i2)) % m
        return i + m * ((j1 + j2) % 2)

    mul = [[mul_pair(x, y) for y in range(order)] for x in range(order)]
    return FiniteGroup(mul, name=f"D{order}", generator_labels={"a": 1, "b": m})


def quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion group Q8 or Q16."""
    if order not in (8, 16):
        raise SpecError(f"quaternion order must be 8 or 16, got {order}")
    k = order // 4
    m = 2 * k  # order of a; b^2 = a^k, b a b^-1 = a^-1

    def mul_pair(x: int, y: int) -> int:
        i1, j1 = x % m, x // m
        i2, j2 = y % m, y // m
        if j1 == 0:
            i = (i1 + i2) % m
            return i + m * j2
        i = (i1 - i2) % m
        if j2 == 0:
            return i + m
        return (i + k) % m

    mul = [[mul_pair(x, y) for y in range(order)] for x in range(order)]
    return FiniteGroup(mul, name=f"Q{order}", generator_labels={"a": 1, "b": m})


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    mul = [
        [index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms
    ]
    return FiniteGroup(mul, name=name)


def symmetric(m: int) -> FiniteGroup:
    """Symmetric group on m points; adjacent transpositions labelled s1..s(m-1)."""
    if not 1 <= m <= 5:
        raise SpecError(f"symmetric group degree must be in 1..5, got {m}")
    perms = list(permutations(range(m)))  # lexicographic, identity first
    group = _perm_group(perms, f"S{m}")
    index = {p: i for i, p in enumerate(perms)}
    labels = {}
    for i in range(m - 1):
        t = list(range(m))
        t[i], t[i + 1] = t[i + 1], t[i]
        labels[f"s{i + 1}"] = index[tuple(t)]
    return group.with_labels(labels)


def alternating(m: int) -> FiniteGroup:
    if not 1 <= m <= 5:
        raise SpecError(f"alternating group degree must be in 1..5, got {m}")
    perms = [p for p in permutations(range(m)) if _parity(p) == 0]
    return _perm_group(perms, f"A{m}")


def _parity(p: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise SpecError(f"elementary abelian base must be prime, got {p}")
    if k < 1:
        raise SpecError(f"elementary abelian rank must be >= 1, got {k}")
    # index = a1 p^(k-1) + ... + ak, the digits of a vector, first factor first
    group = factor = cyclic(p)
    for _ in range(k - 1):
        group = direct_product(group, factor, max_order=p**k)
    group = group.with_labels({f"e{i + 1}": p ** (k - 1 - i) for i in range(k)})
    group.name = f"E{p}^{k}"
    return group


def direct_product(g: FiniteGroup, k: FiniteGroup, max_order: int = HARD_MAX_ORDER) -> FiniteGroup:
    """Direct product with component-wise multiplication; index = a * |K| + b.

    Generator labels are merged where the names do not clash; clashing names
    are dropped (``specs.build_group`` relabels components positionally
    instead, so "C2xC4" gets ``a1``/``a2``).
    """
    n = g.order * k.order
    if n > max_order:
        raise SpecError(
            f"direct product order {n} exceeds the configured max {max_order}"
        )
    ko = k.order
    gm, km = g.mul, k.mul
    mul = [
        [gm[a1][a2] * ko + km[b1][b2] for a2 in range(g.order) for b2 in range(ko)]
        for a1 in range(g.order)
        for b1 in range(ko)
    ]
    labels = {}
    clash = g.generator_labels.keys() & k.generator_labels.keys()
    for label, idx in g.generator_labels.items():
        if label not in clash:
            labels[label] = idx * ko
    for label, idx in k.generator_labels.items():
        if label not in clash:
            labels[label] = idx
    return FiniteGroup(mul, name=f"{g.name}x{k.name}", generator_labels=labels)


# ---------------------------------------------------------------------------
# Element-level operations
# ---------------------------------------------------------------------------


def conjugate(group: FiniteGroup, g: int, n: int) -> int:
    """Left conjugation g n g^-1."""
    return group.mul[group.mul[g][n]][group.inv[g]]


def commutator(group: FiniteGroup, x: int, y: int) -> int:
    """[x, y] = x y x^-1 y^-1."""
    m = group.mul
    return m[m[m[x][y]][group.inv[x]]][group.inv[y]]


# ---------------------------------------------------------------------------
# Subgroup machinery
# ---------------------------------------------------------------------------


def closure(group: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Smallest multiplicatively closed subset containing the identity and gens."""
    elems = {0}
    frontier = sorted(set(gens) - {0})
    elems.update(frontier)
    mul = group.mul
    while frontier:
        new = []
        for a in frontier:
            for b in sorted(elems):
                for c in (mul[a][b], mul[b][a]):
                    if c not in elems:
                        elems.add(c)
                        new.append(c)
        frontier = new
    return tuple(sorted(elems))


def generators(group: FiniteGroup) -> tuple[int, ...]:
    """Each element, in index order, that the earlier ones do not generate
    under ``closure``: a property that holds at 0 and is closed under products
    holds on the whole table, a group's or not, exactly when it holds on these."""

    def make():
        gens, covered = [], {0}
        for x in group.elements():
            if x not in covered:
                gens.append(x)
                covered = set(closure(group, gens))
        return tuple(gens)

    return group.cached("generators", make)


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> SubgroupHandle:
    # a closed finite subset with the identity is a subgroup
    return SubgroupHandle._known(group, closure(group, gens))


def trivial_subgroup(group: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle._known(group, (0,))


def full_subgroup(group: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle._known(group, tuple(group.elements()))


def all_subgroups(group: FiniteGroup) -> list[SubgroupHandle]:
    """All subgroups, ordered by size and then by elements, by cyclic extension.

    A solvable H != 1 has a normal A of prime index p, and H = A<g> for each g
    in H - A: g normalizes A, g^p lies in A, and H is the union of the cosets
    A g^i, i < p.  So each layer extends the last by the elements that no
    extension found so far holds and that conjugate into A the generators A
    was built from.  Up to order 64 only A5 is not solvable, and its proper
    subgroups are, so adding G completes the lattice.  Above ``HARD_MAX_ORDER``
    = 64 it would not (S5 would lose A5), so larger groups are refused.
    """
    if group.order > HARD_MAX_ORDER:
        raise SpecError(
            f"subgroup enumeration limited to order {HARD_MAX_ORDER}, group has {group.order}"
        )
    mul, inv, primes = group.mul, group.inv, prime_factors(group.order)

    def make():
        found, layer = {}, {frozenset((0,)): ()}  # elements -> generators
        while layer:
            found.update(layer)
            grown = {}
            for a, gens in layer.items():
                covered = set(a)
                for g in group.elements():
                    if g in covered or any(mul[mul[g][x]][inv[g]] not in a for x in gens):
                        continue
                    cosets, x = [a], g
                    while x not in a:
                        cosets.append(frozenset(mul[y][x] for y in a))
                        x = mul[x][g]
                    if len(cosets) in primes:
                        h = frozenset().union(*cosets)
                        grown.setdefault(h, gens + (g,))
                        covered |= h
            layer = grown
        return _handles(group, found.keys() | {frozenset(group.elements())})

    return list(group.cached("all_subgroups", make))


def normal_subgroups(group: FiniteGroup) -> list[SubgroupHandle]:
    """All normal subgroups, in the order of ``all_subgroups``, at any order:
    the products AC of the normal closures of the conjugacy classes, each
    closure multiplied onto each newly found product until nothing is new."""
    mul, elements = group.mul, group.elements()

    def make():
        classes = {frozenset(conjugate(group, x, g) for x in elements) for g in elements}
        atoms = {frozenset(closure(group, c)) for c in classes}
        found, frontier = set(), atoms
        while frontier:
            found |= frontier
            frontier = {frozenset(mul[x][y] for x in a for y in c)
                        for a in frontier for c in atoms if not c <= a} - found
        return _handles(group, found)

    return list(group.cached("normal_subgroups", make))


def _handles(group: FiniteGroup, found: Iterable[frozenset[int]]) -> tuple[SubgroupHandle, ...]:
    return tuple(SubgroupHandle(group, e) for e in sorted(sorted(map(sorted, found)), key=len))


def direct_factors(group: FiniteGroup) -> Optional[tuple[SubgroupHandle, SubgroupHandle]]:
    """Normal N and M with N n M = 1 and |N| |M| = |G|, least N first, or None.

    Then G is the internal direct product N x M: each element is one ``n m``.
    """
    normals = normal_subgroups(group)
    return next(
        ((n, m) for n in normals[1:-1] for m in normals
         if n.order * m.order == group.order and len(n._set & m._set) == 1),
        None,
    )


def center(group: FiniteGroup) -> SubgroupHandle:
    """Z(G), the term Z1 of ``upper_central_series``, or Z0 = 1 where the
    series stops there."""
    series = upper_central_series(group)
    return series[1] if len(series) > 1 else series[0]


def commutator_with_group(group: FiniteGroup, h: SubgroupHandle) -> SubgroupHandle:
    """[H, G]: the normal closure in G of [x, s] for x in H and s in
    ``generators``, which holds every [x, g] as [x, s t] = [x, s] s [x, t]
    s^-1.  The closure grows by the conjugates s y s^-1 that it misses; once
    none is missed it is normal, as s N s^-1 <= N for every generator s."""
    mul, inv, gens = group.mul, group.inv, generators(group)
    found = {commutator(group, x, s) for x in h.elements for s in gens}
    while True:
        span = closure(group, found)
        missed = {mul[mul[s][y]][inv[s]] for y in span for s in gens} - set(span)
        if not missed:
            return SubgroupHandle._known(group, span)
        found |= missed


def derived_subgroup(group: FiniteGroup) -> SubgroupHandle:
    """G' = [G, G], the normal closure of the [x, s] for s in ``generators``."""
    return group.cached("derived", lambda: commutator_with_group(group, full_subgroup(group)))


def quotient(
    group: FiniteGroup, n: SubgroupHandle
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup.

    Cosets are indexed by their minimal element in ascending order, so the
    identity coset is index 0 and quotienting by the trivial subgroup returns
    an identical table.  Returns (quotient group, projection map).

    proj is checked on ``generators`` S, proj(a s) = proj(a) proj(s) for each
    a and s, with Light's test on Q and proj(S).  These hold exactly when proj
    is a homomorphism: by induction on the length of b as a word in S,
    proj(a b s) = proj(a) proj(b) proj(s) in the associative Q.  The same
    check is the normality test: for a in N it reads N s <= s N for each s,
    which holds exactly when N is normal, so no other test runs.
    """
    mul = group.mul
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for g in group.elements():
        if g in coset_of:
            continue
        members = sorted(mul[g][h] for h in n.elements)
        idx = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = idx
    proj = tuple(coset_of[g] for g in group.elements())
    qmul = tuple(tuple(proj[mul[r1][r2]] for r2 in reps) for r1 in reps)
    gens = generators(group)
    if any(proj[row[s]] != qmul[proj[a]][proj[s]] for a, row in enumerate(mul) for s in gens):
        raise SpecError(f"subgroup of order {n.order} is not normal in {group.name}")
    _check_associative(qmul, [proj[s] for s in gens])
    return FiniteGroup._known(qmul, f"{group.name}/N{n.order}"), proj


def subgroup_as_group(h: SubgroupHandle) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Re-index a subgroup as a standalone group; returns (group, embedding)."""
    elems = h.elements
    pos = {e: i for i, e in enumerate(elems)}
    # a handle is closure-checked, so the restricted table is a group's
    mul = tuple(tuple(pos[h.parent.mul[a][b]] for b in elems) for a in elems)
    return FiniteGroup._known(mul, f"{h.parent.name}<{h.order}>"), elems


def upper_central_series(group: FiniteGroup) -> list[SubgroupHandle]:
    """Z0 = 1 <= Z1 = Z(G) <= ... until the series stabilizes."""
    return list(group.cached("ucs", lambda: upper_central_from(group, [trivial_subgroup(group)])))


def upper_central_from(
    group: FiniteGroup, series: list[SubgroupHandle]
) -> tuple[SubgroupHandle, ...]:
    """``series``, of normal terms, extended by Z(i+1) = {a : [a, s] in Z(i)
    for each s in ``generators``} until a step adds nothing; the terms given
    are kept.  The g with [a, g] in Z(i) form a subgroup, the preimage of the
    centralizer of a Z(i) in G/Z(i), so every g passes when each s does."""
    elements, gens = group.elements(), generators(group)
    while True:
        prev = series[-1]
        nxt = tuple(a for a in elements if all(commutator(group, a, s) in prev for s in gens))
        if nxt == prev.elements:
            return tuple(series)
        # the preimage of the center of G/Z(i)
        series.append(SubgroupHandle._known(group, nxt))


def nilpotency_class(group: FiniteGroup) -> Optional[int]:
    """Smallest c with Z_c(G) = G, or None if the series stalls below G."""
    return series_class(upper_central_series(group))


def series_class(series: Sequence[SubgroupHandle]) -> Optional[int]:
    """Index of the first term that is the whole group, or None."""
    return next((c for c, term in enumerate(series) if term.order == term.parent.order), None)


def centralizers(group: FiniteGroup) -> tuple[int, ...]:
    """The commuting relation, one bitmask per element x: bit a is set exactly
    when a x = x a, so |C_G(x)| is its ``bit_count()``."""
    def make():
        bits = [1 << a for a in group.elements()]
        return tuple(sum(compress(bits, map(eq, row, col)))
                     for row, col in zip(group.mul, zip(*group.mul)))

    return group.cached("centralizers", make)


def element_orders(group: FiniteGroup) -> tuple[int, ...]:
    return group.cached("element_orders", lambda: tuple(
        group.element_order(a) for a in group.elements()
    ))


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def smallest_prime_divisor(n: int) -> Optional[int]:
    factors = prime_factors(n)
    return factors[0] if factors else None


def relabeled(group: FiniteGroup, perm: Sequence[int]) -> FiniteGroup:
    """Apply an index permutation fixing 0; used to test labelling invariance."""
    if perm[0] != 0:
        raise ValueError("relabeling must fix the identity")
    inverse = [0] * group.order
    for i, p in enumerate(perm):
        inverse[p] = i
    mul = [
        [perm[group.mul[inverse[a]][inverse[b]]] for b in group.elements()]
        for a in group.elements()
    ]
    return FiniteGroup(mul, name=f"{group.name}~")
