import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import (
    Presentation,
    SpecError,
    abelian_tensor_square_oracle,
    generator_element,
    group_from_spec,
    standard_presentation,
    tensor_square,
    tensor_square_presentation,
    todd_coxeter,
)
from grouptensor import tensor as tensor_module
from grouptensor.coset_enum import COMPLETED, EXCEEDED, dump_table, generating_set
from grouptensor.errors import LimitError
from grouptensor.groups import closure, conjugate, element_orders, relabeled


def test_single_relator_cyclic():
    table = todd_coxeter(Presentation(1, ((1, 1, 1, 1),)))
    assert table.status == COMPLETED
    assert table.coset_count == 4


def test_presentation_validation():
    with pytest.raises(SpecError):
        Presentation(1, ((),))
    with pytest.raises(SpecError):
        Presentation(1, ((2,),))
    with pytest.raises(SpecError):
        Presentation(1, ((0,),))


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


def test_tensor_presentation_shape():
    # 2|S||G|^2 relators: S is {1} in C2 and {0} in C1, and in D8 and D32 a
    # rotation of largest order, its inverse and one reflection
    c2 = group_from_spec("C2")
    pres = tensor_square_presentation(c2)
    assert pres.generator_count == 4
    assert len(pres.relators) == 8
    c1 = group_from_spec("C1")
    pres1 = tensor_square_presentation(c1)
    assert pres1.generator_count == 1
    assert len(pres1.relators) == 2
    d8 = group_from_spec("D8")
    pres8 = tensor_square_presentation(d8)
    assert pres8.generator_count == 64
    assert len(pres8.relators) == 384
    assert all(len(w) == 3 for w in pres8.relators)
    # two 3-cycles that generate A4, each with its inverse
    assert len(tensor_square_presentation(group_from_spec("A4")).relators) == 2 * 4 * 144
    d32 = group_from_spec("D32")
    pres32 = tensor_square_presentation(d32)
    assert pres32.generator_count == 1024
    assert len(pres32.relators) == 6144
    assert all(len(w) == 3 for w in pres32.relators)


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


def _relabel(group, seed):
    rest = list(range(1, group.order))
    random.Random(seed).shuffle(rest)
    return relabeled(group, [0] + rest)


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "A4", "D12", "D16", "Q16", "S4"])
def test_class_restricted_presentation_matches_full_presentation(spec):
    # the presentation over S against the full one: order and the whole
    # triviality matrix, on the group and two relabellings
    base = group_from_spec(spec)
    for group in [base, _relabel(base, 1), _relabel(base, 2)]:
        oracle = full_presentation(group)
        assert len(oracle.relators) == 2 * group.order**3
        full = tensor_module._from_table(group, todd_coxeter(oracle))
        data = tensor_square(group)
        assert (data.order, data.trivial) == (full.order, full.trivial), group.name


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
    # A5 peaks at 68,426 live cosets; with an involution in place of its
    # 3-cycles it passes 140,000
    a5 = group_from_spec("A5")
    assert not any(element_orders(a5)[x] == 2 for x in generating_set(a5))


def test_generating_set_keeps_a4_enumeration_small():
    # A4 peaks at 235 live cosets; the cap leaves that peak a small margin,
    # and without inverses in S the peak would be 2,434
    table = todd_coxeter(tensor_square_presentation(group_from_spec("A4")), max_cosets=250)
    assert table.status == COMPLETED
    assert table.coset_count == 24


def test_tensor_presentation_small_counts():
    assert todd_coxeter(tensor_square_presentation(group_from_spec("C1"))).coset_count == 1
    assert todd_coxeter(tensor_square_presentation(group_from_spec("C2"))).coset_count == 2


def test_generator_element_identity_rows():
    g = group_from_spec("S3")
    table = todd_coxeter(tensor_square_presentation(g))
    n = g.order
    # pairs with the identity on either side are forced trivial
    for x in range(n):
        assert generator_element(table, 0 * n + x) == 0
        assert generator_element(table, x * n + 0) == 0
    c2 = group_from_spec("C2")
    t2 = todd_coxeter(tensor_square_presentation(c2))
    assert generator_element(t2, 1 * 2 + 1) != 0


def test_generator_element_requires_completed():
    table = todd_coxeter(tensor_square_presentation(group_from_spec("D8")), max_cosets=10)
    assert table.status == EXCEEDED
    with pytest.raises(RuntimeError):
        generator_element(table, 0)


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
        oracle = abelian_tensor_square_oracle(g)
        assert table.coset_count == oracle.order, spec


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


def test_dump_table_renders():
    table = todd_coxeter(standard_presentation("cyclic", 4))
    text = dump_table(table)
    assert "g0" in text
    assert len(text.splitlines()) == 5
