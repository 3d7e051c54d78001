import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import (
    FiniteGroup,
    Presentation,
    SpecError,
    group_from_spec,
    tensor_square,
    tensor_square_presentation,
    todd_coxeter,
)
from grouptensor import coset_enum
from grouptensor.abelian import bilinear_tensor
from grouptensor import tensor as tensor_module
from grouptensor.coset_enum import (
    COMPLETED,
    EXCEEDED,
    CosetTable,
    _verify_table,
    generating_set,
    spanning_tree,
)
from grouptensor.errors import ConsistencyError, LimitError
from grouptensor.groups import closure, conjugate, element_orders, relabeled
from presentations import standard_presentation


def test_single_relator_cyclic():
    table = todd_coxeter(Presentation(1, ((1, 1, 1, 1),)))
    assert table.status == COMPLETED
    assert table.coset_count == 4
    assert todd_coxeter(Presentation(0, ())).rows == ((),)


def test_presentation_validation():
    with pytest.raises(SpecError):
        Presentation(1, ((),))
    with pytest.raises(SpecError):
        Presentation(1, ((2,),))
    with pytest.raises(SpecError):
        Presentation(1, ((0,),))
    with pytest.raises(SpecError):
        Presentation(1, ((1,),), ((2,),))


STANDARD = [
    ("cyclic", 1, 1),
    ("cyclic", 4, 4),
    ("cyclic", 12, 12),
    ("dihedral", 8, 8),
    ("dihedral", 16, 16),
    ("quaternion", 8, 8),
    ("quaternion", 16, 16),
    ("symmetric", 3, 6),
    ("symmetric", 4, 24),
    ("symmetric", 5, 120),
    ("alternating", 4, 12),
    ("alternating", 5, 60),
]


@pytest.mark.parametrize("family,param,order", STANDARD)
def test_standard_presentations_enumerate_to_family_order(family, param, order):
    table = todd_coxeter(standard_presentation(family, param))
    assert table.status == COMPLETED
    assert table.coset_count == order


def test_enumeration_over_a_subgroup():
    # S4 over the S3 generated by s1 and s2, and D8 over the rotations
    s4 = standard_presentation("symmetric", 4)
    table = todd_coxeter(Presentation(3, s4.relators, ((1,), (2,))))
    assert table.status == COMPLETED and table.coset_count == 4
    assert table.action(0, 1) == table.action(0, 2) == 0
    assert table.action(0, 3) != 0
    d8 = standard_presentation("dihedral", 8)
    assert todd_coxeter(Presentation(2, d8.relators, ((1,),))).coset_count == 2


def test_tensor_presentation_shape():
    # nu(G) on X and X^phi, enumerated over X: X is {0} in C1, {1} in C2, and
    # in D8 and D32 a rotation of largest order and a reflection; Schreier
    # relators that coincide once reduced are kept once, and the crossed
    # relators are conjugated by X alone, which leaves D8 and D32 with 26
    # relators each
    shapes = {"C1": (2, 3, 6), "C2": (2, 4, 20), "D8": (4, 26, 208),
              "A4": (4, 38, 280), "D32": (4, 26, 256), "S4": (4, 42, 332)}
    for spec, (generators, relators, letters) in shapes.items():
        pres = tensor_square_presentation(group_from_spec(spec))
        assert pres.generator_count == generators, spec
        assert len(pres.relators) == relators, spec
        assert sum(map(len, pres.relators)) == letters, spec
        assert pres.subgroup == tuple((i + 1,) for i in range(generators // 2)), spec


def full_presentation(group):
    """Both defining relations at every element: 2|G|^3 relators, the oracle."""
    n = group.order
    mul = group.mul

    def pair(g, h):
        return g * n + h + 1

    relators = []
    for g in range(n):
        for gp in range(n):
            for x in range(n):
                relators.append((
                    -pair(mul[g][gp], x),
                    pair(conjugate(group, g, gp), conjugate(group, g, x)),
                    pair(g, x),
                ))
    for g in range(n):
        for y in range(n):
            for xp in range(n):
                relators.append((
                    -pair(g, mul[y][xp]),
                    pair(g, y),
                    pair(conjugate(group, y, g), conjugate(group, y, xp)),
                ))
    return Presentation(n * n, tuple(relators))


def _relabel_perm(group, seed):
    rest = list(range(1, group.order))
    random.Random(seed).shuffle(rest)
    return [0] + rest


def _relabel(group, seed):
    return relabeled(group, _relabel_perm(group, seed))


_ORACLE: dict = {}


def oracle_square(group):
    """(order, trivial) from the full presentation over the trivial subgroup,
    where row 0 tells which pair generators are the identity."""
    key = group.table_key()
    if key not in _ORACLE:
        n = group.order
        oracle = full_presentation(group)
        assert len(oracle.relators) == 2 * n**3
        table = todd_coxeter(oracle)
        trivial = tuple(
            tuple(table.action(0, g * n + x + 1) == 0 for x in range(n)) for g in range(n)
        )
        _ORACLE[key] = (table.coset_count, trivial)
    return _ORACLE[key]


def nu_square(group):
    """(order, trivial) from the enumeration of nu(G) over G, whatever path
    ``tensor_square`` would take."""
    data = tensor_module._from_table(group, todd_coxeter(tensor_square_presentation(group)))
    tensor_module._validate(group, data)
    return data.order, data.trivial


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "A4", "D12", "D16", "Q16", "S4"])
def test_class_restricted_presentation_matches_full_presentation(spec):
    # tensor_square, which enumerates nu(G) for these groups, against the
    # full presentation: order and the whole triviality matrix, on the group
    # and two relabellings
    base = group_from_spec(spec)
    for group in [base, _relabel(base, 1), _relabel(base, 2)]:
        data = tensor_square(group)
        assert (data.order, data.trivial) == oracle_square(group), group.name


def _factorless(spec):
    return FiniteGroup(group_from_spec(spec).mul, name=f"{spec}/1")


@settings(max_examples=30, deadline=None)
@given(
    spec=st.sampled_from(
        ["S3", "D8", "Q8", "A4", "D12", "D16", "Q16", "S4", "C1", "C3xC3", "C2xC2xC2/1"]
    ),
    seed=st.integers(0, 1000),
)
def test_nu_presentation_matches_full_presentation(spec, seed):
    # the oracle runs once per spec and is carried to the relabelling, an
    # isomorphism; C2xC2xC2/1 is a table without factors that needs three
    # generators
    base = _factorless(spec[:-2]) if spec.endswith("/1") else group_from_spec(spec)
    group = _relabel(base, seed)
    if spec == "C2xC2xC2/1":
        assert len(spanning_tree(group)[0]) == 3
    order, trivial = oracle_square(base)
    perm = _relabel_perm(base, seed)
    expected = [[False] * base.order for _ in base.elements()]
    for a in base.elements():
        for b in base.elements():
            expected[perm[a]][perm[b]] = trivial[a][b]
    assert nu_square(group) == (order, tuple(map(tuple, expected)))


def _generates(group, elements):
    return len(closure(group, elements)) == group.order


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(
        ["C1", "C2", "C6", "C2xC2", "S3", "D8", "Q8", "A4", "D12", "C3xS3",
         "C2xA4", "D16", "Q16", "S4", "D24", "A5"]
    ),
    seed=st.integers(0, 1000),
)
def test_generating_set_is_inverse_closed_and_irredundant(spec, seed):
    group = _relabel(group_from_spec(spec), seed)
    chosen = generating_set(group)
    assert chosen and list(chosen) == sorted(set(chosen))
    assert set(chosen) == {group.inv[x] for x in chosen}
    assert _generates(group, chosen)
    if group.order > 1:
        for x in chosen:
            assert not _generates(group, set(chosen) - {x, group.inv[x]}), x


def test_generating_set_of_a5_has_no_involution():
    # non-involutions first: a 5-cycle unit, then a 3-cycle unit whose
    # product with it is an involution, whatever the labels
    for seed in (None, 1, 2, 3):
        a5 = group_from_spec("A5")
        if seed is not None:
            a5 = _relabel(a5, seed)
        order = element_orders(a5)
        assert not any(order[x] == 2 for x in generating_set(a5))
        x, y = spanning_tree(a5)[0]
        assert (order[x], order[y], order[a5.mul[x][y]]) == (5, 3, 2), seed


@pytest.mark.slow
def test_a5_enumeration_stays_small_under_every_relabelling():
    # the rank picks a 3-cycle unit whose product with the 5-cycle is an
    # involution whatever the labels; over seeds 0-39 the enumeration defines
    # at most 39,740 cosets with at most 13,692 live (56,240 and 37,401 when
    # all of S conjugated and the rank read no products)
    a5 = group_from_spec("A5")
    for seed in range(40):
        table = todd_coxeter(tensor_square_presentation(_relabel(a5, seed)))
        assert table.coset_count == 60 * 120, seed
        assert table.defined <= 42_000 and table.peak_live <= 15_000, seed


def test_generating_set_keeps_a4_enumeration_small():
    # A4 peaks at 714 live cosets with conjugation by X alone; the cap leaves
    # that peak the margin of 51 it had when S conjugated and A4 peaked at 549
    table = todd_coxeter(tensor_square_presentation(group_from_spec("A4")), max_cosets=765)
    assert table.status == COMPLETED
    assert table.coset_count == 12 * 24


def test_tensor_presentation_small_counts():
    # |G| |G (x) G| cosets of G in nu(G)
    assert todd_coxeter(tensor_square_presentation(group_from_spec("C1"))).coset_count == 1
    assert todd_coxeter(tensor_square_presentation(group_from_spec("C2"))).coset_count == 4


def test_generator_element_identity_rows():
    # the letters of X lie in the subgroup G and fix coset 0; their copies in
    # G^phi do not, since G and G^phi meet trivially
    g = group_from_spec("S3")
    table = todd_coxeter(tensor_square_presentation(g))
    m = table.generator_count // 2
    for i in range(m):
        assert table.action(0, i + 1) == 0
        assert table.action(0, m + i + 1) != 0
    # pairs with the identity on either side are trivial, and C2's other pair is not
    c2 = group_from_spec("C2")
    t2 = todd_coxeter(tensor_square_presentation(c2))
    assert tensor_module._from_table(c2, t2).trivial == ((True, True), (True, False))


def test_exceeded_limit_reported_not_raised():
    table = todd_coxeter(tensor_square_presentation(group_from_spec("D8")), max_cosets=10)
    assert table.status == EXCEEDED
    assert table.coset_count <= 10
    assert table.rows == ()


def test_determinism():
    pres = tensor_square_presentation(group_from_spec("S3"))
    t1 = todd_coxeter(pres)
    t2 = todd_coxeter(pres)
    assert t1.rows == t2.rows
    assert t1.coset_count == t2.coset_count


def test_abelian_orders_match_bilinear_oracle():
    for spec in ["C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2xC2", "C2xC4", "C3xC3"]:
        g = group_from_spec(spec)
        table = todd_coxeter(tensor_square_presentation(g))
        oracle = bilinear_tensor(g, g)
        assert table.coset_count == g.order * oracle.order, spec


def test_order_invariant_under_relabeling():
    g = group_from_spec("S3")
    base = todd_coxeter(tensor_square_presentation(g)).coset_count
    twisted = relabeled(g, [0, 2, 4, 1, 3, 5])
    assert todd_coxeter(tensor_square_presentation(twisted)).coset_count == base


def test_tensor_presentation_order_cap():
    with pytest.raises(LimitError):
        tensor_square_presentation(_fake_big_group())


def _fake_big_group():
    from grouptensor.groups import cyclic, direct_product

    g = cyclic(8)
    return direct_product(direct_product(g, cyclic(8)), cyclic(2), max_order=128)


@pytest.mark.parametrize(
    "spec",
    [
        "D16",
        "Q16",
        "S4",
        "D24",
        "D32",
    ],
)
def test_presentation_size_is_label_invariant(spec):
    # the largest-order generator is letter 1 whatever the labels, so the
    # Schreier relators along its powers cancel freely in every relabelling;
    # within a unit {x, x^-1} X takes the element whose product with the
    # previous generator is an involution, so S4 always has 332 letters
    def size(group):
        pres = tensor_square_presentation(group)
        return pres.generator_count, len(pres.relators), sum(map(len, pres.relators))

    base = group_from_spec(spec)
    for seed in (1, 2, 3):
        assert size(_relabel(base, seed)) == size(base), seed


def _c3_table(inverse_column=(2, 0, 1)):
    return CosetTable(1, 3, COMPLETED, tuple(zip((1, 2, 0), inverse_column)))


def test_verify_table_rejects_inconsistent_tables():
    # words are in columns: 0 is the generator, 1 its inverse
    _verify_table(_c3_table(), [(0, 0, 0), (0, 1)])
    _verify_table(CosetTable(1, 1, COMPLETED, ((0, 0),)), [(0,), (0, 1), (1, 1, 1)])
    with pytest.raises(ConsistencyError, match="not a permutation"):
        _verify_table(CosetTable(1, 2, COMPLETED, ((0, 0), (0, 1))), [])
    with pytest.raises(ConsistencyError, match="not inverse-consistent"):
        _verify_table(_c3_table(inverse_column=(1, 2, 0)), [])
    with pytest.raises(ConsistencyError, match="does not trace to the identity"):
        _verify_table(_c3_table(), [(0, 0, 0), (0, 0)])


def columnwise_verify(table, words):
    """The relator check as it was before the prefix tree, the oracle: every
    relator composed letter by letter over every coset."""
    n = table.coset_count
    columns = list(zip(*table.rows))
    identity = tuple(range(n))
    for col, column in enumerate(columns):
        if sorted(column) != list(identity):
            raise ConsistencyError("completed table column is not a permutation")
        if tuple(columns[col ^ 1][c] for c in column) != identity:
            raise ConsistencyError("completed table is not inverse-consistent")
    for word in words:
        perm = identity
        for col in word:
            perm = tuple(columns[col][c] for c in perm)
        if perm != identity:
            raise ConsistencyError("relator does not trace to the identity")


def _verdict(verify, table, words):
    try:
        verify(table, words)
    except ConsistencyError as exc:
        return str(exc)
    return None


def _inverse_word(word):
    return tuple(col ^ 1 for col in reversed(word))


@st.composite
def tables_and_relators(draw):
    """A complete table of random permutations on a few cosets, and relators:
    random words and, for some of them, an inverse of a rotation followed by
    more letters, whose best rotation in the prefix tree is an inverse."""
    n = draw(st.integers(1, 4))
    gens = draw(st.integers(1, 2))
    perms = [draw(st.permutations(range(n))) for _ in range(gens)]
    rows = []
    for c in range(n):
        row = []
        for perm in perms:
            row += [perm[c], perm.index(c)]
        rows.append(tuple(row))
    table = CosetTable(gens, n, COMPLETED, tuple(rows))
    letters = st.integers(0, 2 * gens - 1)
    words = draw(st.lists(st.lists(letters, min_size=1, max_size=8).map(tuple), max_size=6))
    for word in list(words):
        if draw(st.booleans()):
            k = draw(st.integers(0, len(word) - 1))
            tail = draw(st.lists(letters, max_size=3).map(tuple))
            words.append(_inverse_word(word[k:] + word[:k]) + tail)
    return table, draw(st.permutations(words))


@settings(max_examples=300, deadline=None)
@given(tables_and_relators())
def test_prefix_tree_verification_matches_the_columnwise_oracle(case):
    # a rotation of a relator or of its inverse is a conjugate of it, so it
    # closes at every coset exactly when the relator does
    table, words = case
    assert _verdict(_verify_table, table, words) == _verdict(columnwise_verify, table, words)


def test_prefix_tree_verification_catches_one_broken_relator():
    # S3's nu table closes every relator; one relator lengthened by a letter
    # that moves some coset breaks it alone, which the tree must see
    # wherever that relator sits in it
    pres = tensor_square_presentation(group_from_spec("S3"))
    table = todd_coxeter(pres)
    words = list(dict.fromkeys(tuple(coset_enum._column(a) for a in w) for w in pres.relators))
    _verify_table(table, words)
    col = next(c for c in range(2 * table.generator_count)
               if any(row[c] != k for k, row in enumerate(table.rows)))
    for i, word in enumerate(words):
        broken = words[:i] + [word + (col,)] + words[i + 1:]
        assert _verdict(columnwise_verify, table, broken) is not None
        with pytest.raises(ConsistencyError, match="does not trace to the identity"):
            _verify_table(table, broken)


def test_prefix_tree_verification_catches_one_swapped_cell():
    # swapping where one column sends two cosets breaks every relator through
    # them; both checks must refuse the table, at every coset of S3's table
    pres = tensor_square_presentation(group_from_spec("S3"))
    table = todd_coxeter(pres)
    words = list(dict.fromkeys(tuple(coset_enum._column(a) for a in w) for w in pres.relators))
    n = table.coset_count
    for c in range(n):
        rows = [list(row) for row in table.rows]
        d = (c + 1) % n
        a, b = rows[c][2], rows[d][2]
        rows[c][2], rows[d][2] = b, a
        rows[a][3], rows[b][3] = d, c
        broken = CosetTable(table.generator_count, n, COMPLETED, tuple(map(tuple, rows)))
        assert _verdict(columnwise_verify, broken, words) is not None, c
        assert _verdict(_verify_table, broken, words) == _verdict(columnwise_verify, broken, words)


def test_coincidences_count_the_cosets_merged_away():
    # every coset defined either survives or is merged away, for either status
    for cap in (100, coset_enum.DEFAULT_MAX_COSETS):
        table = todd_coxeter(tensor_square_presentation(group_from_spec("S3")), max_cosets=cap)
        assert table.coincidences == table.defined + 1 - table.coset_count
    assert table.status == COMPLETED and table.coincidences == 198


def _counting_verify(monkeypatch):
    """Record, per call of ``_verify_table``, whether the table passed."""
    outcomes = []
    original = coset_enum._verify_table

    def counted(table, words):
        try:
            original(table, words)
        except ConsistencyError:
            outcomes.append(False)
            raise
        outcomes.append(True)

    monkeypatch.setattr(coset_enum, "_verify_table", counted)
    return outcomes


# sha256 of repr(rows) for the nu presentations below, as the enumerator
# that ran HLT to the last coset returned them; a seed names a relabelling
EARLY_STOP_ROWS = {
    ("D16", None): "5b1d94404fc14e40eabe4cb7a5cbe6a48f64ce50a0e05594cb9fe4bead03cb60",
    ("S4", None): "5bfc8c6af7fb4a46daf4631bfb459ce0578e96870d477eaaaf335c9d3e810b43",
    ("D24", None): "215b922a98c81336fe70b4f9826314d5ee2144b229b543b8c917beeed10ed45f",
    ("Q16", None): "39e23c2620c32dc5e612276d7ffcb33f75125157b199f689c44b8527098c5c1f",
    ("D32", None): "60fe677fd7dca24ae049a88c2320ee8dc61250d95756417420ee01d8c8a25db5",
    ("D16", 1): "bde34dccac88e7d0de71da64f88584753a729ade558cba1d8ddb8eae697103b6",
    ("S4", 1): "8608acb5943fc90e14961e289934fa1db054027cad15c0e4d749d21e8d61f489",
}


def test_early_stop_returns_the_full_hlt_table(monkeypatch):
    # once complete and closed the table is final: the cosets HLT skips would
    # only have traced closed relators; one closure check per enumeration
    outcomes = _counting_verify(monkeypatch)
    for (spec, seed), digest in EARLY_STOP_ROWS.items():
        outcomes.clear()
        group = group_from_spec(spec)
        if seed is not None:
            group = _relabel(group, seed)
        table = todd_coxeter(tensor_square_presentation(group))
        assert hashlib.sha256(repr(table.rows).encode()).hexdigest() == digest, (spec, seed)
        assert outcomes == [True], (spec, seed)


@pytest.mark.parametrize(
    "spec,defined,peak_live",
    [("D16", 3076, 1255), ("Q16", 4017, 1558), ("S4", 5879, 2914),
     ("D24", 7790, 3327), ("D32", 15749, 7366)],
    ids=["D16", "Q16", "S4", "D24", "D32"],
)
def test_enumeration_counters_pin_the_hlt_work(spec, defined, peak_live):
    # cosets defined and the peak live count are fixed by the HLT steps
    # taken, not by how rows are stored
    table = todd_coxeter(tensor_square_presentation(group_from_spec(spec)))
    assert (table.defined, table.peak_live) == (defined, peak_live)


@pytest.mark.parametrize(
    "spec,max_cosets,expected",
    [
        ("D8", 10, (10, 9, 10)),
        ("D8", 100, (100, 99, 100)),
        ("D8", 128, (128, 164, 128)),  # half the index 256
        ("S4", 10, (10, 9, 10)),
        ("S4", 100, (100, 99, 100)),
        ("S4", 576, (576, 583, 576)),  # half the index 1152
    ],
)
def test_overflow_stops_where_hlt_reaches_the_cap(spec, max_cosets, expected):
    # (coset_count, defined, peak_live) of the exceeded-limit result
    table = todd_coxeter(tensor_square_presentation(group_from_spec(spec)), max_cosets=max_cosets)
    assert table.status == EXCEEDED and table.rows == ()
    assert (table.coset_count, table.defined, table.peak_live) == expected


@pytest.mark.parametrize("spec", ["S3", "D8", "D10", "D12", "D14", "D16"])
def test_a_square_relator_gives_the_same_square_as_its_conjugate(spec):
    # a generator g whose square is a relator gets one self-inverse column;
    # with that relator restated as its conjugate by h, g keeps two columns,
    # and the two enumerations must give the same cosets and the same square
    for group in (group_from_spec(spec), _relabel(group_from_spec(spec), 1)):
        pres = tensor_square_presentation(group)
        g = next(abs(w[0]) for w in pres.relators if len(w) == 2 and w[0] == w[1])
        h = 2 if g == 1 else 1
        restated = Presentation(pres.generator_count, tuple(
            (h,) + w + (-h,) if w in ((g, g), (-g, -g)) else w for w in pres.relators
        ), pres.subgroup)
        assert not any(w in ((g, g), (-g, -g)) for w in restated.relators)
        one, two = todd_coxeter(pres), todd_coxeter(restated)
        assert all(row[2 * g - 2] == row[2 * g - 1] for row in one.rows), spec
        assert one.coset_count == two.coset_count, spec
        a, b = tensor_module._from_table(group, one), tensor_module._from_table(group, two)
        assert (a.order, a.trivial) == (b.order, b.trivial), spec


def test_early_stop_falls_back_when_a_complete_table_is_not_closed(monkeypatch):
    # with a closure check at every processed coset, this table is complete
    # before its relators close; HLT goes on and the next check passes
    monkeypatch.setattr(coset_enum, "_CLOSURE_CHECK_MIN", 1)
    outcomes = _counting_verify(monkeypatch)
    pres = Presentation(
        2, ((1, 2, 2, -2, 2, 2, -2, -1), (2, -1, -1, 1, -2), (-2, -1, 2, -1, 1), (-2, -2, 1, 1))
    )
    table = todd_coxeter(pres)
    assert table.status == COMPLETED and table.coset_count == 2
    assert outcomes == [False, True]
