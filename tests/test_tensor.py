import dataclasses
import random
import time
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouptensor import (
    FiniteGroup,
    center,
    centralizer,
    derived_subgroup,
    direct_product,
    iterated_commutator,
    j2_order,
    nilpotency_class,
    normal_subgroups,
    quotient,
    tensor_center,
    tensor_centralizer,
    tensor_class,
    tensor_square,
    tensor_square_presentation,
    tensor_upper_central,
    todd_coxeter,
)
from grouptensor import pquotient
from grouptensor import tensor as tensor_module
from grouptensor.coset_enum import DEFAULT_MAX_COSETS
from grouptensor.errors import LimitError
from grouptensor.groups import (
    SubgroupHandle,
    all_subgroups,
    direct_factors,
    relabeled,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
)
from grouptensor.specs import group_from_spec
from grouptensor.verify import builtin_corpus

CORPUS_12 = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3", "D8", "D10", "D12", "Q8", "S3", "A4",
]


def test_tensor_square_c2(tensors):
    data = tensors("C2")
    assert data.order == 2
    assert data.trivial == ((True, True), (True, False))


def test_tensor_square_c1(tensors):
    data = tensors("C1")
    assert data.order == 1
    assert data.trivial == ((True,),)


@pytest.mark.parametrize("n", range(2, 9))
def test_tensor_square_cyclic_orders(n, tensors):
    assert tensors(f"C{n}").order == n


_ENUMERATED: dict = {}


def enumerated(group):
    """(order, trivial) by coset enumeration, which no fast path calls."""
    key = group.table_key()
    if key not in _ENUMERATED:
        table = todd_coxeter(tensor_square_presentation(group))
        data = tensor_module._from_table(group, table)
        _ENUMERATED[key] = (data.order, data.trivial)
    return _ENUMERATED[key]


def decomposed(group):
    """(order, trivial) by the direct-product decomposition, even for abelian groups."""
    data = tensor_module._product(group, *direct_factors(group), DEFAULT_MAX_COSETS)
    return data.order, data.trivial


def shuffled(group, seed=1):
    rest = list(range(1, group.order))
    random.Random(seed).shuffle(rest)
    return relabeled(group, [0] + rest)


def nu_orders(monkeypatch):
    """Orders of the groups whose squares are read from nu(G) from now on, by
    enumeration or as a 2-quotient, memo cleared."""
    monkeypatch.setattr(tensor_module, "_tensor_cache", {})
    orders = []
    presentation = tensor_module.tensor_square_presentation

    def counted(group, **options):
        orders.append(group.order)
        return presentation(group, **options)

    monkeypatch.setattr(tensor_module, "tensor_square_presentation", counted)
    return orders


def test_tensor_square_matches_oracle_exactly(groups, tensors):
    # the bilinear path against enumeration, full matrix included
    for spec in ["C2", "C4", "C6", "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3"]:
        data = tensors(spec)
        assert (data.order, data.trivial) == enumerated(groups(spec)), spec


def test_decomposition_matches_enumeration(groups):
    # C2xC2xC2 is abelian, so only `decomposed` takes the product path there;
    # the relabelled products and C2xA4/1 are tables with no trace of how
    # they were built
    cases = [groups(spec) for spec in ["C3xS3", "S3xC2", "C2xS3", "C2xA4", "C2xC2xC2", "C1xS3xC2"]]
    cases += [
        shuffled(groups("C2xS3")),
        shuffled(groups("C2xA4")),
        quotient(groups("C2xA4"), trivial_subgroup(groups("C2xA4")))[0],
    ]
    for g in cases:
        expected = enumerated(g)
        assert decomposed(g) == expected, g.name
        data = tensor_square(g)
        assert (data.order, data.trivial) == expected, g.name


_FACTORS = ["C1", "C2", "C3", "C4", "S3", "C2xC2"]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_FACTORS), st.sampled_from(_FACTORS))
def test_two_factor_products_match_enumeration(left, right):
    g = direct_product(group_from_spec(left), group_from_spec(right))
    assume(g.order <= 12)
    expected = enumerated(g)
    # a C1 factor can leave a table with no decomposition, such as C1xC4
    if direct_factors(g) is not None:
        assert decomposed(g) == expected
    data = tensor_square(g)
    assert (data.order, data.trivial) == expected


def test_limit_propagates_with_group_name(groups):
    with pytest.raises(LimitError) as err:
        tensor_square(groups("S3"), max_cosets=5)
    assert str(err.value) == "tensor-square enumeration for S3 exceeded 5 cosets"
    with pytest.raises(LimitError) as err:
        tensor_square(group_from_spec("C2xS3"), max_cosets=5)
    assert "tensor-square enumeration for C2xS3<6> exceeded 5 cosets" in str(err.value)


def test_product_tables_take_the_product_path_however_labelled(monkeypatch):
    product = group_from_spec("C2xQ8")
    orders = nu_orders(monkeypatch)
    for group in (shuffled(product), FiniteGroup(product.mul)):
        tensor_module._tensor_cache.clear()
        assert tensor_square(group).order == 2048
    # each reads only its Q8 factor from nu
    assert orders == [8, 8]


def test_product_quotient_takes_the_product_path(monkeypatch):
    # Q8xC4 over the square of C4 is a C2xQ8 table built by nothing
    g = group_from_spec("Q8xC4")
    q, _ = quotient(g, SubgroupHandle(g, (0, 2)))
    assert q.order == 16 and not q.is_abelian()
    orders = nu_orders(monkeypatch)
    assert tensor_square(q).order == 2048
    assert orders == [8]


def indecomposable(group):
    return not group.is_abelian() and direct_factors(group) is None


def maximal_subgroups(group):
    """The subgroups of index 2 of a 2-group G, the preimages of the
    hyperplanes of G / Phi(G); Phi(G) is generated by the squares."""
    frattini = subgroup_generated(group, [group.mul[x][x] for x in group.elements()])
    top, proj = quotient(group, frattini)
    return [
        SubgroupHandle(group, [x for x in group.elements() if proj[x] in h])
        for h in all_subgroups(top)
        if 2 * h.order == top.order
    ]


def d8xd8_subgroups(groups):
    """The nine indecomposable subgroups of order 32 of D8xD8, as groups."""
    found = [subgroup_as_group(h)[0] for h in maximal_subgroups(groups("D8xD8"))]
    return [g for g in found if indecomposable(g)]


def extraspecial_32(groups):
    """2^{1+4}_+: D8xD8 over the diagonal C2 of its center C2xC2, the one
    central C2 whose quotient has a center of order 2."""
    g = groups("D8xD8")
    for z in center(g).elements[1:]:
        q, _ = quotient(g, SubgroupHandle(g, (0, z)))
        if center(q).order == 2:
            return q
    raise AssertionError("no extraspecial quotient")


def pauli(groups):
    """Q8xC4 over a central C2 that leaves it indecomposable (Q8 o C4)."""
    g = groups("Q8xC4")
    for n in normal_subgroups(g):
        if n.order == 2 and indecomposable(q := quotient(g, n)[0]):
            return q
    raise AssertionError("no indecomposable quotient")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["D8", "Q8", "D16", "Q16"]), st.data())
def test_two_quotient_path_matches_enumeration_however_labelled(spec, data):
    group = group_from_spec(spec)
    group = relabeled(group, [0, *data.draw(st.permutations(range(1, group.order)))])
    square = tensor_module._from_two_quotient(group)
    assert (square.order, square.trivial) == enumerated(group)


def test_two_quotient_path_matches_enumeration_on_d32_and_q8_o_c4(groups):
    # enumerating nu(Q8 o C4) takes about 1 s: |G (x) G| = 512
    for group in (groups("D32"), pauli(groups)):
        square = tensor_module._from_two_quotient(group)
        assert (square.order, square.trivial) == enumerated(group), group.name
    assert square.order == 512


def test_weight_bounded_test_words_give_the_quotient_all_test_words_give(groups, monkeypatch):
    every = pquotient._test_words

    def all_test_words(n, cls, weight, power, conj, mul):
        # no weight reaches 2n, so no bound applies
        return every(n, 2 * n, weight, power, conj, mul)

    cases = [groups("D16"), groups("Q16"), groups("D32"), pauli(groups), extraspecial_32(groups)]
    cases += d8xd8_subgroups(groups)[:2]
    bounded = [tensor_module._from_two_quotient(g) for g in cases]
    monkeypatch.setattr(pquotient, "_test_words", all_test_words)
    for group, square in zip(cases, bounded):
        full = tensor_module._from_two_quotient(group)
        assert (square.order, square.trivial) == (full.order, full.trivial), group.name


def test_indecomposable_two_groups_leave_the_enumerator(groups, monkeypatch):
    # the order-32 subgroups of D8xD8 took 25 s or 60 s each to enumerate
    def refuse(*args, **kwargs):
        raise AssertionError("a 2-group was enumerated")

    monkeypatch.setattr(tensor_module, "_tensor_cache", {})
    monkeypatch.setattr(tensor_module, "todd_coxeter", refuse)
    started = time.monotonic()
    orders = sorted(tensor_square(g).order for g in d8xd8_subgroups(groups))
    assert orders == [2048] * 4 + [4096] * 5
    # Brown, Johnson and Robertson: |E (x) E| = 2^16 for E = 2^{1+4}_+
    assert tensor_square(extraspecial_32(groups)).order == 2**16
    assert time.monotonic() - started < 10.0
    for spec, order in [("D8", 32), ("Q8", 64), ("D16", 64), ("Q16", 64), ("D64", 256)]:
        assert tensor_square(groups(spec)).order == order, spec


def test_only_enumerated_squares_keep_counters(groups):
    # (defined, peak_live, coincidences) of the enumeration of nu(G) over G;
    # the 2-quotient (D8), product (C2xS3) and abelian (C4) paths enumerate nothing
    assert tensor_square(groups("S3")).counters == (243, 180, 208)
    assert tensor_square(groups("S4")).counters == (5321, 2541, 4170)
    for spec in ("D8", "C2xS3", "C4"):
        assert tensor_square(groups(spec)).counters is None, spec


def test_a_square_is_its_order_and_matrix():
    # the cache shares a square between equal tables, so it names no group
    names = [f.name for f in dataclasses.fields(tensor_module.TensorSquareData)]
    assert names == ["order", "trivial", "counters"]


def test_the_two_quotient_path_ignores_the_coset_cap(groups):
    # enumeration would need 8 * 64 cosets for Q8 and 32 * 2^16 for
    # 2^{1+4}_+, but the 2-quotient path holds no coset table
    assert tensor_square(groups("Q8"), max_cosets=1).order == 64
    assert tensor_square(extraspecial_32(groups)).order == 2**16


@pytest.mark.slow
def test_two_quotient_path_matches_enumeration_on_d8xd8_subgroups(groups):
    # enumeration takes about 25 s at |G (x) G| = 2048 and 60 s at 4096
    picked = {}
    for group in d8xd8_subgroups(groups):
        picked.setdefault(tensor_square(group).order, group)
    for order in (2048, 4096):
        square = tensor_square(picked[order])
        assert (square.order, square.trivial) == enumerated(picked[order]), order


def test_two_group_pieces_of_order_64_products_square_without_a_cap(monkeypatch):
    # every nonabelian indecomposable subgroup or quotient takes the
    # 2-quotient path under the default cap, with at most 26 pc generators
    lengths = []
    two_quotient = pquotient.two_quotient

    def measured(presentation):
        nu = two_quotient(presentation)
        lengths.append(nu.length)
        return nu

    def refuse(*args, **kwargs):
        raise AssertionError("a 2-group was enumerated")

    monkeypatch.setattr(tensor_module, "_tensor_cache", {})
    monkeypatch.setattr(tensor_module, "todd_coxeter", refuse)
    monkeypatch.setattr(pquotient, "two_quotient", measured)
    pieces = {}
    for spec in ("D8xD8", "D8xQ8", "Q8xQ8"):
        g = group_from_spec(spec)
        for piece in [subgroup_as_group(h)[0] for h in all_subgroups(g)] + [
            quotient(g, n)[0] for n in normal_subgroups(g)
        ]:
            if indecomposable(piece):
                pieces.setdefault(piece.table_key(), piece)
    for piece in pieces.values():
        square = tensor_square(piece)
        assert square.order * piece.order**2 == 2 ** lengths[-1], piece.name
    assert len(lengths) == len(pieces) == 61
    assert max(lengths) == 26


@pytest.mark.parametrize("m", range(2, 33))
def test_dihedral_squares_match_the_closed_form(groups, m):
    # Brown, Johnson and Robertson: |D (x) D| = 8m for D of order 2m with m
    # even, 2m with m odd; D4 is abelian, D12 a product, D8 to D64 2-groups,
    # and the others enumerate
    assert tensor_square(groups(f"D{2 * m}")).order == (8 * m if m % 2 == 0 else 2 * m)


def test_a5_square_is_the_universal_central_extension(groups):
    # Brown and Loday: for a perfect group G, G (x) G is its universal
    # central extension, SL(2, 5) for A5, and J2 = M(A5) has order 2
    a5 = groups("A5")
    data = tensor_square(a5)
    assert data.order == 120
    assert j2_order(a5, data) == 2


def test_two_quotient_path_matches_enumeration_on_d64(groups):
    # enumerating nu(D64) takes about 1 s: 64 * 256 cosets
    d64 = groups("D64")
    square = tensor_module._from_two_quotient(d64)
    assert (square.order, square.trivial) == enumerated(d64)
    assert square.order == 256


def test_products_and_abelian_groups_finish_fast(monkeypatch):
    # each took minutes or did not finish when every square was enumerated
    monkeypatch.setattr(tensor_module, "_tensor_cache", {})
    started = time.monotonic()
    for spec, order in [
        ("C2xQ8", 2048), ("Q8xC4", 4096), ("E2^4", 2**16), ("E2^5", 2**25)
    ]:
        assert tensor_square(group_from_spec(spec)).order == order, spec
    assert time.monotonic() - started < 10.0


def test_tensor_centralizer_basics(groups, tensors):
    s3 = groups("S3")
    data = tensors("S3")
    assert tensor_centralizer(s3, data, 0).order == s3.order
    c2 = groups("C2")
    assert tensor_centralizer(c2, tensors("C2"), 1).elements == (0,)
    three_cycle = next(x for x in s3.elements() if s3.element_order(x) == 3)
    tc = tensor_centralizer(s3, data, three_cycle)
    assert set(tc.elements) <= set(centralizer(s3, three_cycle).elements)


def test_tensor_center(groups, tensors):
    assert tensor_center(groups("S3"), tensors("S3")).order == 1
    assert tensor_center(groups("C1"), tensors("C1")).order == 1
    assert tensor_center(groups("C2"), tensors("C2")).elements == (0,)


def test_tensor_center_within_center(groups, tensors):
    for spec in CORPUS_12:
        g = groups(spec)
        zt = tensor_center(g, tensors(spec))
        assert set(zt.elements) <= set(center(g).elements), spec


def test_triviality_symmetry_and_kappa(groups, tensors):
    for spec in CORPUS_12:
        g = groups(spec)
        t = tensors(spec).trivial
        for x in g.elements():
            assert t[0][x] and t[x][0]
            for y in g.elements():
                assert t[x][y] == t[y][x]
                if t[x][y]:
                    assert g.mul[x][y] == g.mul[y][x]


def test_j2_order(groups, tensors):
    assert j2_order(groups("C1"), tensors("C1")) == 1
    for n in range(2, 9):
        assert j2_order(groups(f"C{n}"), tensors(f"C{n}")) == n
    d8 = groups("D8")
    data = tensors("D8")
    assert derived_subgroup(d8).order == 2
    assert j2_order(d8, data) == data.order // 2


def test_j2_divisibility(groups, tensors):
    for spec in CORPUS_12:
        g = groups(spec)
        data = tensors(spec)
        assert data.order == j2_order(g, data) * derived_subgroup(g).order, spec


def test_tensor_upper_central_series(groups, tensors):
    s3 = groups("S3")
    d3 = tensors("S3")
    assert tensor_upper_central(s3, d3, 1).elements == tensor_center(s3, d3).elements
    for n in (1, 2, 3):
        assert tensor_upper_central(s3, d3, n).order == 1
    # ascending chain with pullback/direct agreement built in for n <= 3
    for spec in CORPUS_12:
        g = groups(spec)
        data = tensors(spec)
        prev = None
        for n in (1, 2, 3):
            term = tensor_upper_central(g, data, n)
            if prev is not None:
                assert set(prev.elements) <= set(term.elements), spec
            prev = term


def direct_tensor_central(group, data, n):
    """Z_n-tensor by its definition: every [a, x1, ..., x(n-1)] (x) xn is trivial."""
    tails = list(product(group.elements(), repeat=n - 1))
    return tuple(
        a
        for a in group.elements()
        if all(all(data.trivial[iterated_commutator(group, (a,) + tail)]) for tail in tails)
    )


@pytest.mark.parametrize("spec", [entry.spec for entry in builtin_corpus(24)])
def test_tensor_upper_central_matches_the_direct_definition(groups, tensors, spec):
    g, data = groups(spec), tensors(spec)
    for n in (1, 2, 3, 4) if g.order <= 16 else (1, 2, 3):
        assert tensor_upper_central(g, data, n).elements == direct_tensor_central(g, data, n), (
            spec, n,
        )


def test_tensor_class_values(groups, tensors):
    assert tensor_class(groups("C1"), tensors("C1")) == 0
    assert tensor_class(groups("S3"), tensors("S3")) is None
    assert tensor_class(groups("C2"), tensors("C2")) == 2
    assert tensor_class(groups("D8"), tensors("D8")) == 3


def test_tensor_class_bounds_nilpotency(groups, tensors):
    for spec in CORPUS_12:
        g = groups(spec)
        c = tensor_class(g, tensors(spec))
        if c is not None:
            nc = nilpotency_class(g)
            assert nc is not None and nc <= c, spec
