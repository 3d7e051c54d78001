import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import (
    SpecError,
    all_subgroups,
    center,
    commutator,
    commutator_subgroup,
    conjugate,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_factors,
    direct_product,
    elementary_abelian,
    group_from_spec,
    nilpotency_class,
    normal_subgroups,
    quotient,
    subgroup_generated,
    symmetric,
    upper_central_series,
)
from grouptensor import groups as groups_module
from grouptensor.groups import (
    FiniteGroup,
    SubgroupHandle,
    closure,
    full_subgroup,
    relabeled,
    trivial_subgroup,
)
from grouptensor.verify import builtin_corpus
from naive import center_all_pairs, centralizer, is_normal, iterated_commutator

SMALL_SPECS = [
    "C1", "C2", "C3", "C4", "C6", "C8", "C12",
    "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3", "E2^3", "E3^2",
    "D8", "D10", "D12", "Q8", "Q16", "S3", "S4", "A4", "D16",
]


def test_build_named_families():
    assert group_from_spec("C1").order == 1
    assert group_from_spec("D8").order == 8
    assert group_from_spec("S3").order == 6
    assert group_from_spec("A5").order == 60
    assert group_from_spec("Q16").order == 16
    assert group_from_spec("E3^2").order == 9


def test_elementary_abelian_encodes_vectors_as_base_p_digits():
    # index a1 p^(k-1) + ... + ak for the vector (a1, ..., ak), e_i its i-th unit
    for k in range(1, 7):
        g = elementary_abelian(2, k)
        assert g.name == f"E2^{k}"
        assert all(g.mul[a][b] == a ^ b for a in g.elements() for b in g.elements())
        assert g.generator_labels == {f"e{i + 1}": 2 ** (k - 1 - i) for i in range(k)}
    for p in (3, 5):
        g = elementary_abelian(p, 2)
        assert g.generator_labels == {"e1": p, "e2": 1}
        for a in g.elements():
            for b in g.elements():
                high, low = (a // p + b // p) % p, (a % p + b % p) % p
                assert g.mul[a][b] == high * p + low


def test_build_named_rejects_bad_input():
    with pytest.raises(SpecError):
        group_from_spec("F3")
    with pytest.raises(SpecError):
        group_from_spec("D9")
    with pytest.raises(SpecError):
        group_from_spec("Q12")
    with pytest.raises(SpecError):
        group_from_spec("S6")
    with pytest.raises(SpecError):
        group_from_spec("S5", max_order=64)


def test_dihedral_relation_holds():
    d8 = dihedral(8)
    a, b = d8.generator_labels["a"], d8.generator_labels["b"]
    # b a = a^-1 b
    assert d8.mul[b][a] == d8.mul[d8.inv[a]][b]
    assert d8.element_order(a) == 4
    assert d8.element_order(b) == 2


def test_symmetric_3_center_is_trivial():
    s3 = symmetric(3)
    assert s3.order == 6
    assert center(s3).order == 1


def test_direct_products():
    c2 = cyclic(2)
    klein = direct_product(c2, c2)
    assert klein.order == 4 and klein.exponent() == 2
    c2xc4 = direct_product(c2, cyclic(4))
    assert c2xc4.order == 8 and c2xc4.is_abelian()
    s3xc2 = direct_product(symmetric(3), c2)
    assert s3xc2.order == 12
    assert center(s3xc2).order == 2
    with pytest.raises(SpecError):
        direct_product(symmetric(4), symmetric(4))


def test_conjugation():
    d8 = dihedral(8)
    a, b = d8.generator_labels["a"], d8.generator_labels["b"]
    assert conjugate(d8, b, a) == d8.power(a, 3)
    for g in d8.elements():
        assert conjugate(d8, 0, g) == g
    c6 = cyclic(6)
    for g in c6.elements():
        for n in c6.elements():
            assert conjugate(c6, g, n) == n


def test_commutators_in_d8():
    d8 = dihedral(8)
    a, b = d8.generator_labels["a"], d8.generator_labels["b"]
    assert commutator(d8, a, b) == d8.power(a, 2)
    assert iterated_commutator(d8, [a, b, b]) == 0
    assert iterated_commutator(d8, [a]) == a
    for x in d8.elements():
        assert commutator(d8, x, x) == 0
    with pytest.raises(ValueError):
        iterated_commutator(d8, [])


def test_subgroup_generated():
    d8 = dihedral(8)
    a, b = d8.generator_labels["a"], d8.generator_labels["b"]
    h = subgroup_generated(d8, [d8.power(a, 2), d8.mul[a][b]])
    assert h.elements == (0, 2, 5, 7)
    assert h.order == 4
    assert subgroup_generated(d8, []).elements == (0,)
    c4 = cyclic(4)
    assert subgroup_generated(c4, [2]).order == 2


def test_normal_subgroups_are_computed_once_per_group(monkeypatch):
    calls = []
    closure = groups_module.closure

    def counted(group, gens):
        calls.append(gens)
        return closure(group, gens)

    monkeypatch.setattr(groups_module, "closure", counted)
    d8 = dihedral(8)
    first = normal_subgroups(d8)
    assert len(first) == 6 and calls
    made = len(calls)
    assert normal_subgroups(d8) == first
    assert len(calls) == made


def _shuffled(group, seed):
    rest = list(range(1, group.order))
    random.Random(seed).shuffle(rest)
    return relabeled(group, [0] + rest)


@pytest.mark.parametrize(
    "spec",
    ["C1", "S3", "D8", "Q8", "A4", "D12", "C2xC4", "Q16", "S4", "D24", "C2xQ8", "C2xD8", "E2^4",
     "D32", "C2xC2xD8"],
)
def test_normal_subgroups_match_the_normal_filter(spec):
    for group in (group_from_spec(spec), _shuffled(group_from_spec(spec), 7)):
        subgroups = all_subgroups(group)
        oracle = [h for h in subgroups if is_normal(h)]
        assert normal_subgroups(group) == oracle, spec
        assert [h for h in subgroups if h.is_normal()] == oracle, spec


def test_normal_subgroups_above_order_32():
    assert [h.order for h in normal_subgroups(group_from_spec("A5"))] == [1, 60]
    # 1, C3 and S3 in either factor, C3xC3, S3xC3, C3xS3, (C3xC3):C2, S3xS3
    assert [h.order for h in normal_subgroups(group_from_spec("S3xS3"))] == [
        1, 3, 3, 6, 6, 9, 18, 18, 18, 36,
    ]


_PRODUCTS = [("S3", "C2"), ("C3", "S3"), ("Q8", "C2"), ("C4", "D8"), ("A4", "C2"), ("S3", "S3")]
_DECOMPOSABLE = ["D12", "D20"]
_INDECOMPOSABLE = ["S3", "D8", "Q8", "A4", "D16", "Q16", "S4", "D24", "D32"]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(
        [("x".join(p), True) for p in _PRODUCTS]
        + [(spec, True) for spec in _DECOMPOSABLE]
        + [(spec, False) for spec in _INDECOMPOSABLE]
    ),
    st.integers(0, 2**32),
)
def test_direct_factors_exactly_when_a_product(case, seed):
    spec, decomposable = case
    group = _shuffled(group_from_spec(spec), seed)
    factors = direct_factors(group)
    assert (factors is not None) == decomposable, spec
    if factors is not None:
        n, m = factors
        assert 1 < n.order <= m.order and n.is_normal() and m.is_normal()
        assert set(n.elements) & set(m.elements) == {0}
        assert {group.mul[x][y] for x in n.elements for y in m.elements} == set(group.elements())


def test_subgroup_generated_idempotent():
    s4 = symmetric(4)
    h = subgroup_generated(s4, [1, 5])
    again = subgroup_generated(s4, h.elements)
    assert again.elements == h.elements


def test_all_subgroups_counts():
    s3 = symmetric(3)
    subs = all_subgroups(s3)
    assert len(subs) == 6
    assert len(normal_subgroups(s3)) == 3
    assert len(all_subgroups(cyclic(6))) == 4
    # A5 is the one group of order <= 64 that is not solvable
    assert len(all_subgroups(group_from_spec("A5"))) == 59
    # above order 64, S5 would lose its nonsolvable subgroup A5
    with pytest.raises(SpecError, match="64"):
        all_subgroups(symmetric(5))
    # counts known independently of the code: D_2n has tau(n) + sigma(n)
    # subgroups (D16 4 + 15, D24 6 + 28, D32 5 + 31, D48 8 + 60, D64 6 + 63),
    # and E2^k the sum of the Gaussian binomials [k, j]_2
    for spec, count in [("D16", 19), ("D24", 34), ("D32", 36), ("Q16", 11), ("E2^4", 67),
                        ("S4", 30), ("S3xS3", 60), ("D48", 68), ("D64", 69), ("E2^5", 374),
                        ("E2^6", 2825)]:
        group = group_from_spec(spec)
        for g in (group, _shuffled(group, 11)):
            assert len(all_subgroups(g)) == count, spec


def join_lattice(group):
    """Every subgroup as a join of cyclic subgroups: each cyclic subgroup is
    joined onto each newly found subgroup until nothing new appears."""
    atoms = {frozenset(closure(group, (g,))) for g in group.elements()}
    found, frontier = set(), atoms
    while frontier:
        found |= frontier
        frontier = {frozenset(closure(group, a | c)) for a in frontier for c in atoms
                    if not c <= a} - found
    return sorted(sorted(map(sorted, found)), key=len)


@pytest.mark.parametrize(
    "spec",
    SMALL_SPECS + ["D20", "D24", "C3xS3", "C2xA4", "C2xQ8", "C2xD8", "E2^4", "C4xC8", "D32",
                   "Q8xC4", "C2xC2xD8", "E2^5"],
)
def test_all_subgroups_match_the_join_lattice(spec):
    for group in (group_from_spec(spec), _shuffled(group_from_spec(spec), 3)):
        assert [list(h.elements) for h in all_subgroups(group)] == join_lattice(group), spec


def test_all_subgroups_structure():
    for spec in ["C12", "D8", "Q8", "S3", "A4"]:
        g = group_from_spec(spec)
        subs = all_subgroups(g)
        sizes = [h.order for h in subs]
        assert sizes[0] == 1 and sizes[-1] == g.order
        assert all(g.order % s == 0 for s in sizes)
        assert len({h.elements for h in subs}) == len(subs)


def test_centralizer_and_center():
    d8 = dihedral(8)
    assert center(d8).elements == (0, 2)
    c6 = cyclic(6)
    assert center(c6).order == 6
    s3 = symmetric(3)
    three_cycle = next(x for x in s3.elements() if s3.element_order(x) == 3)
    assert centralizer(s3, three_cycle).order == 3


def test_center_is_the_all_pairs_center():
    # Z1 of the upper central series, or Z0 where the series stops there
    rng = random.Random(30)
    for entry in builtin_corpus(24):
        rest = list(range(1, entry.group.order))
        rng.shuffle(rest)
        for g in (entry.group, relabeled(entry.group, [0] + rest)):
            assert center(g).elements == center_all_pairs(g), entry.spec


def test_commutator_subgroup():
    d8 = dihedral(8)
    assert derived_subgroup(d8).elements == (0, 2)
    assert derived_subgroup(cyclic(8)).order == 1
    s3 = symmetric(3)
    a3 = derived_subgroup(s3)
    assert a3.order == 3
    assert all(s3.element_order(x) in (1, 3) for x in a3.elements)
    full = full_subgroup(s3)
    assert commutator_subgroup(s3, full, full).elements == a3.elements


def test_quotient():
    d8 = dihedral(8)
    q, proj = quotient(d8, subgroup_generated(d8, [2]))
    assert q.order == 4 and q.exponent() == 2
    # projection is a homomorphism
    for a in d8.elements():
        for b in d8.elements():
            assert proj[d8.mul[a][b]] == q.mul[proj[a]][proj[b]]
    same, proj2 = quotient(d8, trivial_subgroup(d8))
    assert same.mul == d8.mul
    assert proj2 == tuple(range(8))
    c4 = cyclic(4)
    q2, _ = quotient(c4, subgroup_generated(c4, [2]))
    assert q2.order == 2


def test_quotient_requires_normal():
    s3 = symmetric(3)
    reflection = next(x for x in s3.elements() if s3.element_order(x) == 2)
    h = subgroup_generated(s3, [reflection])
    with pytest.raises(ValueError, match="not normal"):
        quotient(s3, h)


@pytest.mark.parametrize("spec", ["S3", "D8", "A4", "S4", "D12", "Q16", "C2xS3"])
def test_quotient_refuses_a_subgroup_wrongly_called_normal(spec, monkeypatch):
    group = group_from_spec(spec)
    others = [h for h in all_subgroups(group) if not is_normal(h)]
    assert others
    # the projection check alone must refuse what the normality test lets through
    monkeypatch.setattr(SubgroupHandle, "is_normal", lambda self: True)
    for h in others:
        with pytest.raises(SpecError):
            quotient(group, h)


def test_table_above_order_64_is_validated_and_quotiented():
    group = FiniteGroup(direct_product(dihedral(8), dihedral(10), max_order=80).mul)
    z = center(group)
    assert group.order == 80 and z.order == 2
    q, proj = quotient(group, z)
    assert q.order == 40
    assert all(proj[group.mul[a][b]] == q.mul[proj[a]][proj[b]]
               for a in group.elements() for b in group.elements())


def test_upper_central_series_and_class():
    d8 = dihedral(8)
    series = upper_central_series(d8)
    assert [t.order for t in series] == [1, 2, 8]
    assert nilpotency_class(d8) == 2
    assert nilpotency_class(symmetric(3)) is None
    assert nilpotency_class(cyclic(5)) == 1
    assert nilpotency_class(cyclic(1)) == 0
    assert nilpotency_class(group_from_spec("Q16")) == 3


def test_relabeled_preserves_structure():
    s3 = symmetric(3)
    twisted = relabeled(s3, [0, 3, 1, 4, 2, 5])
    assert twisted.order == 6
    assert sorted(twisted.element_order(x) for x in twisted.elements()) == sorted(
        s3.element_order(x) for x in s3.elements()
    )


# a Latin square with identity in which every element is its own inverse,
# but (1 2) 2 = 3 2 = 4 and 1 (2 2) = 1 0 = 1
_NON_ASSOCIATIVE_5 = [
    [0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0],
]


def test_bad_tables_rejected():
    with pytest.raises(SpecError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(SpecError):
        FiniteGroup([[1, 0], [0, 1]])
    with pytest.raises(SpecError, match="not associative"):
        FiniteGroup(_NON_ASSOCIATIVE_5)
    # its product with C13, of order 65, index a * 13 + b
    times_c13 = [
        [_NON_ASSOCIATIVE_5[a1][a2] * 13 + (b1 + b2) % 13 for a2 in range(5) for b2 in range(13)]
        for a1 in range(5)
        for b1 in range(13)
    ]
    with pytest.raises(SpecError, match="not associative"):
        FiniteGroup(times_c13)


@st.composite
def small_group(draw):
    spec = draw(st.sampled_from(SMALL_SPECS))
    return group_from_spec(spec)


@settings(max_examples=25, deadline=None)
@given(small_group(), st.data())
def test_commutator_vanishes_iff_commuting(g, data):
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    assert (commutator(g, x, y) == 0) == (g.mul[x][y] == g.mul[y][x])


@settings(max_examples=25, deadline=None)
@given(small_group(), st.data())
def test_group_axioms_spot(g, data):
    x = data.draw(st.integers(0, g.order - 1))
    assert g.mul[0][x] == x and g.mul[x][0] == x
    assert g.mul[x][g.inv[x]] == 0
    y = data.draw(st.integers(0, g.order - 1))
    z = data.draw(st.integers(0, g.order - 1))
    assert g.mul[x][g.mul[y][z]] == g.mul[g.mul[x][y]][z]


@settings(max_examples=15, deadline=None)
@given(small_group(), st.data())
def test_closure_gives_subgroup(g, data):
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    h = subgroup_generated(g, gens)
    assert 0 in h
    assert g.order % h.order == 0
    assert subgroup_generated(g, h.elements).elements == h.elements
