import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouptensor import (
    FiniteGroup,
    center,
    centralizer,
    derived_subgroup,
    direct_product,
    j2_order,
    nilpotency_class,
    quotient,
    tensor_center,
    tensor_centralizer,
    tensor_class,
    tensor_square,
    tensor_square_presentation,
    tensor_upper_central,
    todd_coxeter,
)
from grouptensor import tensor as tensor_module
from grouptensor.coset_enum import DEFAULT_MAX_COSETS
from grouptensor.errors import ConsistencyError, LimitError
from grouptensor.groups import (
    SubgroupHandle,
    direct_factors,
    relabeled,
    trivial_subgroup,
)
from grouptensor.specs import group_from_spec

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


def enumerated_orders(monkeypatch):
    """Orders of the groups whose squares are enumerated from now on, memo cleared."""
    monkeypatch.setattr(tensor_module, "_tensor_cache", {})
    orders = []
    presentation = tensor_module.tensor_square_presentation

    def counted(group):
        orders.append(group.order)
        return presentation(group)

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
        tensor_square(groups("Q8"), max_cosets=5)
    assert "Q8" in str(err.value)
    with pytest.raises(LimitError) as err:
        tensor_square(group_from_spec("C2xQ8"), max_cosets=5)
    assert "tensor-square enumeration for C2xQ8<8> exceeded 5 cosets" in str(err.value)


def test_product_tables_take_the_product_path_however_labelled(monkeypatch):
    # Q8 peaks at 649 live cosets; enumerating C2xQ8 itself needs 16 * 2048
    product = group_from_spec("C2xQ8")
    orders = enumerated_orders(monkeypatch)
    for group in (shuffled(product), FiniteGroup(product.mul)):
        tensor_module._tensor_cache.clear()
        assert tensor_square(group, max_cosets=700).order == 2048
    # each enumerates only its Q8 factor
    assert orders == [8, 8]


def test_product_quotient_takes_the_product_path(monkeypatch):
    # Q8xC4 over the square of C4 is a C2xQ8 table built by nothing
    g = group_from_spec("Q8xC4")
    q, _ = quotient(g, SubgroupHandle(g, (0, 2)))
    assert q.order == 16 and not q.is_abelian()
    orders = enumerated_orders(monkeypatch)
    assert tensor_square(q, max_cosets=700).order == 2048
    assert orders == [8]


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


@pytest.mark.parametrize("spec", ["D8", "Q8", "D16", "Q16"])
def test_tensor_upper_central_matches_the_direct_definition(groups, tensors, spec):
    # the run-time cross-check stops at n = 3
    g, data = groups(spec), tensors(spec)
    for n in (1, 2, 3, 4):
        assert tensor_upper_central(g, data, n).elements == (
            tensor_module._direct_tensor_central(g, data, n)
        ), (spec, n)


def test_tensor_upper_central_cross_check_once_per_group_and_n(monkeypatch):
    direct = tensor_module._direct_tensor_central
    calls = []

    def counted(group, data, n):
        calls.append(n)
        return direct(group, data, n)

    monkeypatch.setattr(tensor_module, "_direct_tensor_central", counted)
    d8 = group_from_spec("D8")
    data = tensor_square(d8)
    for _ in range(2):
        for n in (1, 2, 3, 4):
            tensor_upper_central(d8, data, n)
    assert calls == [1, 2, 3]
    # a mismatch on a group not yet checked is still a hard error
    monkeypatch.setattr(tensor_module, "_direct_tensor_central", lambda group, data, n: ())
    with pytest.raises(ConsistencyError):
        tensor_upper_central(group_from_spec("D8"), data, 1)


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
