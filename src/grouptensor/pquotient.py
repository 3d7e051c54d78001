"""The largest 2-quotient of a finitely presented group, as a pc presentation.

This is the p-quotient algorithm for p = 2 (Holt, Eick and O'Brien, Handbook
of Computational Group Theory, 2005, ch. 9).  A quotient is held as a
power-commutator (pc) presentation on generators a_0, ..., a_(n-1) of
nondecreasing weight.  Every element is a collected word
``a_0^e_0 ... a_(n-1)^e_(n-1)`` with each e_i 0 or 1, stored as the int whose
bit i is e_i, and the relations are

* ``a_i^2 = power[i]``, a word in generators of greater weight;
* ``a_j^(a_i) = conj[i][j]`` for j > i: a_j times a word in generators of
  weight at least wt(i) + wt(j).

Collection multiplies collected words: ``x a_i`` moves a_i left past the
part of x above i, conjugating that part by a_i, and squares it away with
``power[i]`` if x already holds a_i.

Class 1 is the quotient by the exponent sums of the relators mod 2.  The
presentation generators whose columns stay free in the elimination become
a_0, ..., a_(d-1), of weight 1, each defined as the image of its generator;
the images of the others are words in them.

The step from class c to class c + 1 forms the 2-cover.  Every relation that
does not define a generator gets a tail, a new central generator of order 2:
the image of each presentation generator, ``a_j^2``, and ``[a_j, a_i]`` where
wt(i) + wt(j) is at most c + 1 (a commutator of greater weight is trivial in
the 2-cover).  The tails are the bits from n up, so an element of the cover
is still one int.  The class-c quotient is consistent and satisfies every
relator, so two collections of one word, or the two halves of a relator,
agree below bit n, and the tails where they differ sum to the identity: a
linear relation over GF(2).  The words collected are the consistency test
words (Wamsley) ``(a_k a_j) a_i`` against ``a_k (a_j a_i)``, ``(a_j a_j) a_i``
against ``a_j (a_j a_i)``, ``(a_j a_i) a_i`` against ``a_j (a_i a_i)`` and
``(a_i a_i) a_i`` against ``a_i (a_i a_i)``, for k > j > i, and the halves of
every relator.  Only test words whose weights sum to at most c + 1, a square
counting as wt + 1, are collected.  The others hold in a weighted
presentation of class c + 1, the bound nilpotent quotient algorithms use
(Handbook, ch. 9), and a test checks that all test words give the same
quotients.  The tails left free by the elimination are the generators of
weight c + 1.  Each is the tail of the square of a generator of weight c, or
of its commutator with one of weight 1, since those relations span the new
layer and are ordered last in the elimination; that relation becomes its
definition.

The loop stops at the class whose cover adds no generator.  The presentation
is then consistent, so its group has order exactly 2^n, and every relator
holds in it, so it is the largest 2-quotient of the presented group: for a
presentation of a finite 2-group, that group itself.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .coset_enum import Presentation
from .errors import ConsistencyError


class PcQuotient(NamedTuple):
    """A consistent pc presentation and the images of the presentation's
    generators; ``mul`` multiplies collected words."""

    length: int
    images: tuple[int, ...]
    mul: Callable[[int, int], int]

    @property
    def order(self) -> int:
        return 1 << self.length

    def letters(self) -> dict[int, int]:
        return _letters(self.images, self.mul)


def _letters(images: Sequence[int], mul: Callable[[int, int], int]) -> dict[int, int]:
    """The image of each signed generator number, ``+g`` and ``-g``."""
    letters = {}
    for g, x in enumerate(images):
        # x^-1 is the product of x^(2^k) for 2^k below the order of x
        inverse, power = 0, x
        while power:
            inverse = mul(inverse, power)
            power = mul(power, power)
        letters[g + 1], letters[-g - 1] = x, inverse
    return letters


def two_quotient(presentation: Presentation, max_length: int) -> Optional[PcQuotient]:
    """The largest 2-quotient of the presented group, or None once a class
    has more than ``max_length`` pc generators.

    The subgroup words play no part.  The presented group must have a
    largest finite 2-quotient, as every finite group does.
    """
    relators = presentation.relators
    sums = []
    for word in relators:
        v = 0
        for letter in word:
            v ^= 1 << (abs(letter) - 1)
        sums.append(v)
    free, images = _solve(_eliminate(sums), presentation.generator_count, 0)
    # definitions[k]: the relation defining a_k, as ("x", g), ("p", j) or ("c", j, i)
    definitions = [("x", g) for g in free]
    n = len(free)
    weight = [1] * n
    power = [0] * n
    conj = [[1 << j for j in range(n)] for _ in range(n)]
    while n <= max_length:
        if not n or not (added := _cover(weight, definitions, power, conj, images, relators)):
            return PcQuotient(n, tuple(images), _collector(n, power, conj))
        n += added
    return None


def _eliminate(relations: Iterable[int]) -> dict[int, int]:
    """Reduced echelon form over GF(2), as pivot bit -> row.

    A row's pivot is its lowest bit, so each pivot column is a sum of higher
    columns that are not pivots.
    """
    rows: dict[int, int] = {}
    for v in relations:
        while v:
            low = v & -v
            row = rows.get(low)
            if row is None:
                rows[low] = v
                break
            v ^= row
    pivots = 0
    for low in sorted(rows, reverse=True):
        v = rows[low]
        rest = v & pivots
        while rest:
            b = rest & -rest
            rest ^= b
            v ^= rows[b]
        rows[low] = v
        pivots |= low
    return rows


def _solve(rows: dict[int, int], width: int, offset: int) -> tuple[list[int], list[int]]:
    """The columns of ``rows`` that are not pivots, and the value of each of
    the ``width`` columns as a set of new generators, bit offset + k for the
    k-th free column."""
    free = [t for t in range(width) if (1 << t) not in rows]
    index = {1 << t: 1 << (offset + k) for k, t in enumerate(free)}
    values = [
        index[1 << t] if (1 << t) in index else _substitute(rows[1 << t] ^ (1 << t), index)
        for t in range(width)
    ]
    return free, values


def _substitute(v: int, index: dict[int, int]) -> int:
    out = 0
    while v:
        b = v & -v
        v ^= b
        out |= index[b]
    return out


def _cover(
    weight: list[int],
    definitions: list[tuple],
    power: list[int],
    conj: list[list[int]],
    images: list[int],
    relators: Sequence[Sequence[int]],
) -> int:
    """Extend the quotient by one class, in place; returns the number of
    generators added, 0 if the 2-cover adds none."""
    n, cls = len(weight), weight[-1]
    defined = set(definitions)
    # relations with a tail: those that cannot define a generator come first,
    # so the elimination expresses them in the ones that can
    low_keys = [("x", g) for g in range(len(images)) if ("x", g) not in defined]
    candidates = []
    for j in range(n):
        if ("p", j) not in defined:
            (candidates if weight[j] == cls else low_keys).append(("p", j))
    for j in range(n):
        for i in range(j):
            if weight[i] + weight[j] > cls + 1 or ("c", j, i) in defined:
                continue
            can_define = weight[j] == cls and weight[i] == 1
            (candidates if can_define else low_keys).append(("c", j, i))
    keys = low_keys + candidates
    tail = {key: 1 << (n + t) for t, key in enumerate(keys)}

    c_power = [p | tail.get(("p", j), 0) for j, p in enumerate(power)]
    c_conj = [
        [c | tail.get(("c", j, i), 0) for j, c in enumerate(row)]
        for i, row in enumerate(conj)
    ]
    c_images = [image | tail.get(("x", g), 0) for g, image in enumerate(images)]
    mul = _collector(n, c_power, c_conj)
    pmask = (1 << n) - 1

    def relation(left: int, right: int) -> int:
        diff = left ^ right
        if diff & pmask:
            raise ConsistencyError("a 2-cover relation does not lie in the tails")
        return diff >> n

    pairs = chain(
        _test_words(n, cls, weight, c_power, c_conj, mul),
        _relator_halves(c_images, relators, mul),
    )
    free, values = _solve(_eliminate(relation(*pair) for pair in pairs), len(keys), n)
    if any(t < len(low_keys) for t in free):
        raise ConsistencyError("a new 2-quotient generator has no definition")
    value = dict(zip(keys, values))
    m = n + len(free)
    for j in range(n):
        power[j] |= value.get(("p", j), 0)
    for i, row in enumerate(conj):
        for j in range(i + 1, n):
            row[j] |= value.get(("c", j, i), 0)
        row.extend(1 << k for k in range(n, m))
    for g in range(len(images)):
        images[g] |= value.get(("x", g), 0)
    power.extend([0] * len(free))
    conj.extend([1 << k for k in range(m)] for _ in free)
    weight.extend([cls + 1] * len(free))
    definitions.extend(keys[t] for t in free)
    return len(free)


def _test_words(
    n: int,
    cls: int,
    weight: list[int],
    power: list[int],
    conj: list[list[int]],
    mul: Callable[[int, int], int],
) -> Iterable[tuple[int, int]]:
    """Both collections of each consistency test word of weight at most cls + 1.

    ``a_i w`` is collected as it stands for w above a_i, and so is
    ``a_j a_i = a_i a_j^(a_i)``.
    """
    top = cls + 1
    for i in range(n):
        a_i, w_i = 1 << i, weight[i]
        if 2 * w_i + 1 <= top:
            yield mul(power[i], a_i), a_i | power[i]
        for j in range(i + 1, n):
            a_j, w_j = 1 << j, weight[j]
            if w_i + w_j + 1 > top:
                break
            ji = a_i | conj[i][j]
            yield mul(power[j], a_i), mul(a_j, ji)
            yield mul(ji, a_i), mul(a_j, power[i])
            for k in range(j + 1, n):
                if w_i + w_j + weight[k] > top:
                    break
                yield mul(a_j | conj[j][k], a_i), mul(1 << k, ji)


def _relator_halves(
    images: list[int], relators: Sequence[Sequence[int]], mul: Callable[[int, int], int]
) -> Iterable[tuple[int, int]]:
    """For each relator u v, the values of u and of v^-1; prefixes are shared."""
    letters = _letters(images, mul)
    values: dict[tuple[int, ...], int] = {}

    def value(word: Sequence[int]) -> int:
        v, prefix = 0, ()
        for a in word:
            prefix += (a,)
            known = values.get(prefix)
            if known is None:
                known = values[prefix] = mul(v, letters[a])
            v = known
        return v

    for word in relators:
        h = len(word) // 2
        yield value(word[:h]), value([-a for a in reversed(word[h:])])


def _collector(n: int, power: list[int], conj: list[list[int]]) -> Callable[[int, int], int]:
    """``mul(x, y)``: the collected word of x y.  Bits from n up are central
    tails of order 2, which ``power`` and ``conj`` may hold but never move."""
    pmask = (1 << n) - 1
    moves = [
        sum(1 << j for j in range(i + 1, n) if row[j] != 1 << j)
        for i, row in enumerate(conj)
    ]

    tmask = ~pmask
    conjugates: list[dict[int, int]] = [{} for _ in conj]

    def conjugate(h: int, i: int) -> int:
        # h^(a_i) for h in the generators above i, as the product of the images
        out = conjugates[i].get(h)
        if out is None:
            row, m, key, acc = conj[i], moves[i], h, 0
            while h & m:
                b = h & -h
                h ^= b
                acc = mul(acc, row[b.bit_length() - 1])
            out = conjugates[i][key] = mul(acc, h) if acc else h
        return out

    def mul(x: int, y: int) -> int:
        tails = (x ^ y) & tmask
        x &= pmask
        y &= pmask
        done = 0  # the collected part below every generator still in x
        while y:
            b = y & -y
            y ^= b
            i = b.bit_length() - 1
            # x a_i = low a_i above^(a_i), with low the part of x up to a_i
            above = x & ~((b << 1) - 1)
            if above:
                x ^= above
                if above & moves[i]:
                    above = conjugate(above, i)
            if x & b:
                x ^= b
                rest = power[i]
                if above:
                    rest = mul(rest, above) if rest else above
            else:
                x |= b
                rest = above
            if rest:
                # x is now collected up to a_i, and rest y lies above it
                done |= x
                tails ^= rest & tmask
                x = rest & pmask
        return done | x ^ tails

    return mul
