"""Finitely presented groups and Todd-Coxeter coset enumeration.

Enumeration is over the subgroup generated by the presentation's subgroup
words, the trivial subgroup if there are none; over the trivial subgroup a
completed table is the regular representation of the presented group and its
coset count is the group order.  The strategy is HLT: the subgroup words are
scanned and filled at coset 0, then relators are scanned and filled at every
live coset in index order, coincidences are processed immediately through a
FIFO queue backed by a union-find with path compression, and rows are filled
after scanning so every generator image gets defined.  The whole procedure
is deterministic: identical input produces an identical table.

HLT stops early once the table is complete and closed.  Every
max(64, live / 16) processed cosets, if no live coset has an undefined
entry, the table is compacted and ``_verify_table`` checks that every
relator closes at every coset.  A complete table in which every relator
closes and the subgroup words fix coset 0 is the coset table (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005, ch. 5), and the
remaining HLT steps would only trace closed relators and fill no entry, so
the table returned is the one HLT would have finished with.  If a relator
does not close, HLT goes on to the last coset and verifies the final table.

Once its columns are checked to be mutually inverse permutations, the table
is an action of the free group, and a relator acts as the identity exactly
when any cyclic rotation of it, or of its inverse, does: each is a conjugate
of it.  So ``_verify_table`` may check whichever of these shares the longest
prefix with the relators already placed, and composes whole columns once per
node of that prefix tree (S4 204 compositions for 332 relator letters, A5
334 for 596).

The kernel is inlined where it runs per coset: a definition is written out
in the scan and in the row fill, and callers of ``rep``, ``merge`` among
them, skip it for cosets that are union-find roots.  Inlining changes no
step: the definitions, scans and coincidences are HLT's as described above.

Rows are dense lists, one entry per kernel column, while enumerating.  A
generator whose square is a relator, an involution, has one kernel column
that is its own inverse, and its square is not scanned: ``colmap`` takes each
table column to its kernel column and ``inverse[col]`` is a kernel column's
inverse.  Coset c is row c + 1.  Row 0 is a sink whose entries are all 0: an
undefined entry reads 0, and a trace that reaches the sink stays there, so
closed relators are traced without an exception path and no live coset is
ever row 0.  A processed dead coset gives up its row for one shared read-only
row of -1 entries, which holds no 0, so the table is complete exactly when no
row after the sink holds a 0.  Each relator carries its inverse columns for
the backward scan.  The completed table is compacted by renumbering the live
rows through a list, without looking any entry up in the union-find (once
the coincidence queue is empty, live rows point only at live cosets), and
expanded through ``colmap`` to two columns per generator, which
``_verify_table`` checks.  Every write pairs an entry ``alpha[col] = beta``
with its inverse entry ``beta[inverse[col]] = alpha``, and writes go only to
undefined entries, so the pairs stay intact.  Processing a dead coset walks
its row and so clears every back-pointer to it, before its row is dropped.

So each closure check starts at the first row the previous one found
incomplete: a row that was complete stays complete while it lives.  A
definition fills an entry or adds a row at the end.  A coincidence clears an
entry of a live row alpha only where it points at the dead coset gamma being
processed, and then records gamma's paired entry, ``gamma[col] = alpha``, at
``mu = rep(gamma)``.  Either it writes the pair ``mu[col] = alpha``,
``alpha[inverse[col]] = mu``, which refills alpha's entry, or ``mu[col]`` is
some coset beta and alpha merges with beta.  Then beta is not alpha, whose
entry would pair with mu and not with gamma.  If alpha stays live, every other
coset of its class, beta included, is processed before the queue empties,
and ``beta[inverse[col]] = mu`` is written back at alpha the same way.

Words are sequences of signed 1-based generator numbers, ``+g`` for the
generator ``g-1`` and ``-g`` for its inverse.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import reduce
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import ConsistencyError, LimitError, SpecError
from .groups import HARD_MAX_ORDER, FiniteGroup, closure, conjugate, element_orders

DEFAULT_MAX_COSETS = 1_000_000

# The least number of processed cosets between checks whether HLT may stop;
# the gap grows with the live count, so the checks cost O(1) per coset.
_CLOSURE_CHECK_MIN = 64


class Presentation(
    namedtuple("Presentation", "generator_count relators subgroup", defaults=((),))
):
    """A finite presentation: generator count, relator words and the words
    that generate the subgroup to enumerate over (the trivial one if none)."""

    __slots__ = ()

    # validated here, which a typing.NamedTuple cannot define
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.generator_count < 0:
            raise SpecError("generator count must be nonnegative")
        for word in self.relators + self.subgroup:
            if not word:
                raise SpecError("relator and subgroup words must be nonempty")
            for letter in word:
                if letter == 0 or abs(letter) > self.generator_count:
                    raise SpecError(f"relator letter {letter} out of range")
        return self


COMPLETED = "completed"
EXCEEDED = "exceeded-limit"


class CosetTable(NamedTuple):
    """Result of an enumeration.

    ``rows[c]`` has ``2 * generator_count`` entries: column ``2g`` is the
    action of generator ``g`` on coset ``c`` and column ``2g + 1`` the action
    of its inverse.  Coset 0 is the subgroup itself.  For an exceeded-limit
    result the rows are absent and ``coset_count`` reports the number of live
    cosets at the point enumeration stopped.  ``defined`` is the number of
    cosets defined, coset 0 not counted, ``peak_live`` the largest number of
    cosets live at once and ``coincidences`` the number of cosets merged
    away, ``defined + 1 - coset_count``, for either status.
    """

    generator_count: int
    coset_count: int
    status: str
    rows: tuple[tuple[int, ...], ...] = ()
    defined: int = 0
    peak_live: int = 0
    coincidences: int = 0

    def action(self, coset: int, letter: int) -> int:
        """Apply a signed generator letter to a coset."""
        return self.rows[coset][_column(letter)]


def _column(letter: int) -> int:
    g = abs(letter) - 1
    return 2 * g + (0 if letter > 0 else 1)


def todd_coxeter(
    presentation: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """Enumerate the cosets of the presentation's subgroup.

    Returns a completed, compacted, verified table, or a table whose status
    is ``exceeded-limit`` if more than ``max_cosets`` cosets would be live at
    once.  A generator whose square is a relator gets one self-inverse column.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    # duplicate relators add nothing to the enumeration; preserve first-seen order
    words = list(
        dict.fromkeys(
            tuple(_column(letter) for letter in word)
            for word in presentation.relators
        )
    )
    subgroup = [tuple(_column(letter) for letter in word) for word in presentation.subgroup]
    # an involution, its square a relator, gets one self-inverse kernel column
    involutory = {w[0] // 2 for w in words if len(w) == 2 and w[0] == w[1]}
    colmap, inverse = [], []  # kernel column of a table column; inverse of a kernel column
    for g in range(presentation.generator_count):
        k = len(inverse)
        colmap += (k, k) if g in involutory else (k, k + 1)
        inverse += (k,) if g in involutory else (k + 1, k)
    ncols = len(inverse)

    def kernel(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        word = tuple(colmap[col] for col in word)
        return word, tuple(inverse[col] for col in word)

    # while enumerating, coset c is row c + 1 and row 0 is the sink
    table: list = [[0] * ncols, [0] * ncols]
    parent = [0, 1]  # union-find over rows; dead rows point below themselves
    live = peak = 1
    # processed dead cosets share one read-only row with no 0 entry
    dead_row = (-1,) * ncols
    blank = [0] * ncols
    columns = range(ncols)

    def rep(c: int) -> int:
        # callers look up a root themselves: most cosets they meet are roots
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    queue: deque[int] = deque()

    def merge(a: int, b: int) -> None:
        nonlocal live, peak
        if parent[a] != a:
            a = rep(a)
        if parent[b] != b:
            b = rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        if live > peak:
            peak = live
        live -= 1
        queue.append(b)

    def coincidence(a: int, b: int) -> None:
        merge(a, b)
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            table[gamma] = dead_row
            mu = rep(gamma)
            for col, flip, delta in zip(columns, inverse, row):
                if not delta:
                    continue
                back = table[delta]
                if back[flip] == gamma:
                    back[flip] = 0
                if parent[mu] != mu:
                    mu = rep(mu)
                nu = delta if parent[delta] == delta else rep(delta)
                image = table[mu][col]
                if image:
                    merge(nu, image)
                    continue
                image = table[nu][flip]
                if image:
                    merge(mu, image)
                else:
                    table[mu][col] = nu
                    table[nu][flip] = mu

    def scan_and_fill(alpha: int, word: tuple[int, ...], back: tuple[int, ...]) -> None:
        nonlocal live
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and (x := table[f][word[i]]):
                f = x
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and (x := table[b][back[j]]):
                b = x
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][back[i]] = f
                return
            # define a new coset as the image of f under word[i]
            if live >= max_cosets:
                raise _Overflow
            beta = len(table)
            row = blank.copy()
            row[back[i]] = f
            table.append(row)
            parent.append(beta)
            table[f][word[i]] = beta
            live += 1
            f = beta
            i += 1

    def compacted() -> CosetTable:
        alive = [r for r in range(1, len(table)) if parent[r] == r]
        renum = [0] * len(table)
        for new, old in enumerate(alive):
            renum[old] = new
        expand = itemgetter(*colmap) if colmap else lambda row: ()
        return CosetTable(
            generator_count=presentation.generator_count,
            coset_count=len(alive),
            status=COMPLETED,
            rows=tuple(tuple(map(renum.__getitem__, expand(table[old]))) for old in alive),
            defined=len(table) - 2,
            peak_live=max(peak, live),
            coincidences=len(table) - 1 - live,
        )

    first_open = 1

    def closed() -> CosetTable | None:
        # between scans no live row points at a dead coset, and dead rows
        # hold no 0, so the table is complete exactly when no row but the
        # sink has an undefined entry; rows below first_open were complete
        # at the last check and still are (see the module docstring)
        nonlocal first_open
        first_open = next(
            (r for r in range(first_open, len(table)) if 0 in table[r]), len(table)
        )
        if first_open < len(table):
            return None
        result = compacted()
        try:
            _verify_table(result, words)
        except ConsistencyError:
            return None
        return result

    # an involution's square closes by construction in its one column
    relators = list(dict.fromkeys(kernel(w) for w in words
                                  if len(w) != 2 or w[0] != w[1]))
    result = None
    try:
        for word in subgroup:
            scan_and_fill(1, *kernel(word))
        alpha = 1
        countdown = _CLOSURE_CHECK_MIN
        while result is None and alpha < len(table):
            # live cosets are exactly the union-find roots
            if parent[alpha] != alpha:
                alpha += 1
                continue
            for word, back in relators:
                # most scans find the relator already closed at alpha; an
                # undefined entry leads to the sink, which is never alpha
                f = alpha
                for col in word:
                    f = table[f][col]
                if f == alpha:
                    continue
                scan_and_fill(alpha, word, back)
                if parent[alpha] != alpha:
                    break
            else:
                # definitions never merge cosets, so alpha stays live here
                row = table[alpha]
                for col, flip, beta in zip(columns, inverse, row):
                    if not beta:
                        if live >= max_cosets:
                            raise _Overflow
                        new = blank.copy()
                        new[flip] = alpha
                        row[col] = len(table)
                        table.append(new)
                        parent.append(row[col])
                        live += 1
            alpha += 1
            countdown -= 1
            if not countdown:
                countdown = max(_CLOSURE_CHECK_MIN, live // 16)
                result = closed()
    except _Overflow:
        return CosetTable(
            generator_count=presentation.generator_count,
            coset_count=live,
            status=EXCEEDED,
            defined=len(table) - 2,
            peak_live=max(peak, live),
            coincidences=len(table) - 1 - live,
        )

    if result is None:
        result = compacted()
        _verify_table(result, words)
    rows = result.rows
    if any(reduce(lambda c, col: rows[c][col], word, 0) for word in subgroup):
        raise ConsistencyError("subgroup generator does not fix coset 0")
    return result


class _Overflow(Exception):
    pass


def _verify_table(table: CosetTable, words: Sequence[tuple[int, ...]]) -> None:
    # whole columns are composed as permutations: perm[c] is where the
    # letters read so far take coset c
    n = table.coset_count
    columns = list(zip(*table.rows))
    identity = tuple(range(n))
    # each column is composed with its partner both ways, so is a permutation
    for col, column in enumerate(columns):
        if _compose(column, columns[col ^ 1]) != identity:
            if len(set(column)) != n:
                raise ConsistencyError("completed table column is not a permutation")
            raise ConsistencyError("completed table is not inverse-consistent")
    # each relator, longest first, is placed in a prefix tree as the rotation
    # of it or of its inverse that shares the longest prefix with those
    # placed (see the module docstring); the key None marks a relator's end
    tree: dict = {}
    for word in sorted(words, key=len, reverse=True):
        best, depth = word, -1
        for w in (word, tuple(col ^ 1 for col in reversed(word))):
            for i in range(len(w)):
                rotation = w[i:] + w[:i]
                node, k = tree, 0
                while k < len(w) and rotation[k] in node:
                    node = node[rotation[k]]
                    k += 1
                if k > depth:
                    best, depth = rotation, k
        node = tree
        for col in best:
            node = node.setdefault(col, {})
        node[None] = None
    stack = [(tree, identity)]
    while stack:
        node, perm = stack.pop()
        for col, child in node.items():
            if col is None:
                if perm != identity:
                    raise ConsistencyError("relator does not trace to the identity")
            else:
                stack.append((child, _compose(perm, columns[col])))


def _compose(perm: Sequence[int], column: Sequence[int]) -> tuple[int, ...]:
    """``column[perm[c]]`` for every c."""
    if len(perm) == 1:  # itemgetter of one index returns the item, not a tuple
        return (column[perm[0]],)
    return itemgetter(*perm)(column)


# ---------------------------------------------------------------------------
# Presentations of interest
# ---------------------------------------------------------------------------


def tensor_square_presentation(group: FiniteGroup) -> Presentation:
    """A presentation of Rocco's group nu(G), with G as its subgroup.

    Rocco (Bol. Soc. Brasil. Mat. 22, 1991) presents nu(G) on G and a copy
    G^phi by G's relations, their phi-copies and, for all g, h and k,
    ``^k [g, h^phi] = [^k g, (^k h)^phi] = ^(k^phi) [g, h^phi]``;
    ``g (x) h -> [g, h^phi]`` maps G (x) G isomorphically onto
    ``[G, G^phi]``.  Ellis and Leonard (Proc. Roy. Irish Acad. 95A, 1995)
    show that the last relations are needed only at generators, and one
    conjugator of each unit {x, x^-1} will do.

    Generator ``i`` is ``X[i]`` and ``|X| + i`` is ``X[i]^phi``, for X of
    ``spanning_tree``; w(g) is the word of g along its tree.  The relators
    are the Schreier relators ``w(g) x w(gx)^-1`` (g in G, x in X), their
    phi-copies, and ``z [x, y^phi] z^-1 = [^z x, (^z y)^phi]`` and
    ``z^phi [x, y^phi] z^-phi = [^z x, (^z y)^phi]`` for x, y and z in X,
    freely and cyclically reduced, without duplicates.  The subgroup words
    are the letters of X.  S4 has 42 relators of 332 letters, D16 26 and Q16
    44.  Enumeration and the 2-quotient path read the same presentation.
    """
    n = group.order
    if n > HARD_MAX_ORDER:
        raise LimitError(
            f"tensor-square presentation limited to order {HARD_MAX_ORDER}, group has {n}"
        )
    gens, tree = spanning_tree(group)
    m = len(gens)
    word: dict[int, tuple[int, ...]] = {0: ()}
    for g, parent, letter in tree:
        word[g] = word[parent] + (letter,)

    def phi(w: Sequence[int]) -> tuple[int, ...]:
        return tuple(a + m if a > 0 else a - m for a in w)

    def inverse(w: Sequence[int]) -> tuple[int, ...]:
        return tuple(-a for a in reversed(w))

    schreier = [
        word[g] + (i + 1,) + inverse(word[group.mul[g][x]])
        for g in range(n)
        for i, x in enumerate(gens)
    ]
    relators = schreier + [phi(w) for w in schreier]
    for z in gens:
        for i, x in enumerate(gens):
            for j, y in enumerate(gens):
                a, b = word[conjugate(group, z, x)], phi(word[conjugate(group, z, y)])
                commutator = (i + 1, m + j + 1, -(i + 1), -(m + j + 1))
                rhs_inverse = b + a + inverse(b) + inverse(a)
                for c in (word[z], phi(word[z])):
                    relators.append(c + commutator + inverse(c) + rhs_inverse)
    reduced = dict.fromkeys(_reduced(w) for w in relators)
    return Presentation(
        generator_count=2 * m,
        relators=tuple(w for w in reduced if w),
        subgroup=tuple((i + 1,) for i in range(m)),
    )


def _reduced(word: Sequence[int]) -> tuple[int, ...]:
    """Freely and then cyclically reduced copy of a word."""
    out: list[int] = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    i, j = 0, len(out)
    while j - i > 1 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return tuple(out[i:j])


def spanning_tree(
    group: FiniteGroup,
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """X and a breadth-first tree of the right Cayley graph of G on X.

    X holds one element of each unit of ``generating_set(group)``, by
    descending element order, ties by least element: whatever the labels, a
    generator of largest order is letter 1, so the Schreier relators along
    its powers cancel freely.  The first unit gives its least element, and
    each later unit the element y whose product with the previous generator
    x is an involution, or else has the largest order, ties by least element.
    The order of xy does not depend on the labels, nor does it change if x
    and y are both inverted.  S4's presentation then has 332 relator letters
    and A5's 596 whatever the labels (relabelling seeds 0-39).  At the
    default labels S4 defines 5,879 cosets, at most 2,914 live, and A5
    39,177, at most 13,069 live.
    The tree has ``(g, parent, letter)`` for every g but the identity, with
    g = parent * X[i] for the letter ``i + 1`` and parent * X[i]^-1 for
    ``-(i + 1)``, letters tried in the order ``+1, -1, +2, -2, ...``.
    """
    def make():
        order = element_orders(group)

        def product_rank(gens: list[int], y: int) -> tuple[bool, int]:
            # an involution first, then the largest order
            if not gens:
                return False, 0
            k = order[group.mul[gens[-1]][y]]
            return k != 2, -k

        gens: list[int] = []
        for x in sorted(
            (x for x in generating_set(group) if x <= group.inv[x]),
            key=lambda x: (-order[x], x),
        ):
            # a label-free choice within the unit, ties by least element
            gens.append(min({x, group.inv[x]}, key=lambda y: (product_rank(gens, y), y)))
        steps = [
            (letter, y)
            for i, x in enumerate(gens)
            for letter, y in ((i + 1, x), (-(i + 1), group.inv[x]))
        ]
        seen, frontier, tree = {0}, [0], []
        for parent in frontier:
            row = group.mul[parent]
            for letter, y in steps:
                g = row[y]
                if g not in seen:
                    seen.add(g)
                    frontier.append(g)
                    tree.append((g, parent, letter))
        return tuple(gens), tuple(tree)

    return group.cached("spanning_tree", make)


def generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """The elements of S, sorted, whose units ``spanning_tree`` takes X from.

    S generates the group and is a union of units ``{x, x^-1}``.  It starts
    with a unit of largest element order, ties by least element.  While S
    does not generate the group, it adds the unit outside the subgroup
    generated so far that ranks first: a unit with an element whose product
    with an element of the last unit added is an involution; then a
    non-involution; then lower element order; then the least element.  Then
    every unit the others can do without is dropped, in the order added.
    The trivial group gets its identity.  Only the ties by least element
    read labels.  A5 gets a 5-cycle unit and a 3-cycle unit whose product
    is an involution: over relabelling seeds 0-39 its enumeration defines
    36,712-39,740 cosets, at most 11,496-13,692 live.  Among the one- and
    two-term specs up to order 64, the first key changes S only for A5 and
    for direct products, which are squared through their factors.
    """
    if group.order == 1:
        return (0,)
    order = element_orders(group)
    units = {tuple(sorted({x, group.inv[x]})) for x in group.elements() if x}

    def span(picked: list[tuple[int, ...]]) -> tuple[int, ...]:
        return closure(group, [x for unit in picked for x in unit])

    def rank(unit: tuple[int, ...]) -> tuple:
        # an involutory product with the last unit, a non-involution, the
        # least order: none of these reads a label; the least element last
        product = any(order[group.mul[x][y]] == 2 for x in chosen[-1] for y in unit)
        return not product, order[unit[0]] == 2, order[unit[0]], unit[0]

    chosen = [max(units, key=lambda unit: (order[unit[0]], -unit[0]))]
    reached = set(span(chosen))
    while len(reached) < group.order:
        chosen.append(min((u for u in units if u[0] not in reached), key=rank))
        reached = set(span(chosen))
    for unit in list(chosen):
        rest = [u for u in chosen if u != unit]
        if len(span(rest)) == group.order:
            chosen = rest
    return tuple(sorted(x for unit in chosen for x in unit))

