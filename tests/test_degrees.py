from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import (
    all_subgroups,
    comm_degree,
    format_decimal,
    format_fraction,
    group_from_spec,
    n_tensor_degree,
    rel_comm_degree,
    rel_n_tensor_degree,
    subgroup_from_words,
    tensor_degree,
    tensor_square,
)
from grouptensor.errors import LimitError
from grouptensor.groups import full_subgroup, subgroup_generated
from grouptensor.verify import Config, EntryContext
from naive import (
    NAIVE_TUPLE_LIMIT,
    commutator_distribution,
    rel_n_tensor_degree_distribution,
    rel_n_tensor_degree_naive,
)


def test_format_helpers():
    assert format_fraction(Fraction(1)) == "1/1"
    assert format_fraction(Fraction(3, 4)) == "3/4"
    assert format_decimal(Fraction(3, 4)) == "0.750"
    assert format_decimal(Fraction(192, 2048)) == "0.094"
    assert format_decimal(Fraction(1, 3)) == "0.333"
    # half-to-even at the third place
    assert format_decimal(Fraction(1, 800)) == "0.001"
    assert format_decimal(Fraction(3, 800)) == "0.004"
    assert format_decimal(Fraction(5, 2)) == "2.500"


def test_rel_comm_degree_values(groups):
    s3 = groups("S3")
    assert comm_degree(s3) == Fraction(1, 2)
    assert comm_degree(groups("D8")) == Fraction(5, 8)
    d8 = groups("D8")
    central = subgroup_generated(d8, [2])  # inside the center
    assert rel_comm_degree(d8, central) == 1


def test_commutator_distribution_shapes(groups):
    s3 = groups("S3")
    full = full_subgroup(s3)
    dist = commutator_distribution(s3, full, 2)
    three_cycles = [x for x in s3.elements() if s3.element_order(x) == 3]
    assert dist[0] == 18
    assert all(dist[c] == 9 for c in three_cycles)
    assert sum(dist.values()) == 36
    c6 = groups("C6")
    d2 = commutator_distribution(c6, full_subgroup(c6), 2)
    assert d2 == {0: 36}
    d1 = commutator_distribution(s3, full, 1)
    assert d1 == {v: 1 for v in range(6)}


def test_distribution_mass_and_support(groups):
    for spec in ["S3", "D8", "A4", "Q8"]:
        g = groups(spec)
        for h in all_subgroups(g):
            for n in (1, 2, 3):
                dist = commutator_distribution(g, h, n)
                assert sum(dist.values()) == h.order**n
                assert set(dist) <= set(h.elements)


def test_example_order2_subgroup_of_c4(groups, tensors):
    c4 = groups("C4")
    data = tensors("C4")
    h = subgroup_generated(c4, [2])
    assert rel_n_tensor_degree(c4, data, h, 2) == 1
    assert rel_n_tensor_degree_naive(c4, data, h, 2) == 1


def test_example_d8_abelian_subgroup(groups, tensors):
    d8 = groups("D8")
    data = tensors("D8")
    h = subgroup_from_words(d8, "a^2,a*b")
    dp = rel_n_tensor_degree(d8, data, h, 4)
    naive = rel_n_tensor_degree_naive(d8, data, h, 4)
    assert dp == naive == 1
    assert dp != Fraction(192, 2048)


def test_tensor_degree_values(groups, tensors):
    assert tensor_degree(groups("C2"), tensors("C2")) == Fraction(3, 4)
    for p in (2, 3, 5):
        value = tensor_degree(groups(f"C{p}"), tensors(f"C{p}"))
        assert value == Fraction(2 * p - 1, p * p)
    assert rel_n_tensor_degree(
        groups("C2"), tensors("C2"), full_subgroup(groups("C2")), 1
    ) == Fraction(3, 4)


def test_s3_ladder(groups, tensors):
    s3 = groups("S3")
    data = tensors("S3")
    values = [n_tensor_degree(s3, data, n) for n in (1, 2, 3, 4)]
    assert values == [
        Fraction(5, 12),
        Fraction(3, 4),
        Fraction(7, 8),
        Fraction(15, 16),
    ]
    for n, value in zip((1, 2, 3, 4), values):
        assert value <= Fraction(2**n - 1, 2**n)


def test_tensor_degree_at_most_comm_degree(groups, tensors):
    for spec in ["C2", "C6", "D8", "Q8", "S3", "A4", "D12", "C2xC4"]:
        assert tensor_degree(groups(spec), tensors(spec)) <= comm_degree(groups(spec))


def test_comm_degree_one_iff_abelian(groups):
    for spec in ["C1", "C2", "C12", "C2xC4", "E2^3", "S3", "D8", "Q8", "A4"]:
        g = groups(spec)
        assert (comm_degree(g) == 1) == g.is_abelian()


def test_degree_bounds(groups, tensors):
    for spec in ["C1", "C2", "D8", "S3", "A4"]:
        g = groups(spec)
        data = tensors(spec)
        for h in all_subgroups(g):
            for n in (1, 2, 3):
                v = rel_n_tensor_degree(g, data, h, n)
                assert 0 < v <= 1


def test_naive_guard():
    g = group_from_spec("D16")
    data = tensor_square(g)
    with pytest.raises(LimitError):
        rel_n_tensor_degree_naive(g, data, full_subgroup(g), 6)
    with pytest.raises(ValueError):
        rel_n_tensor_degree(g, data, full_subgroup(g), 0)


def test_trivial_subgroup_degree_is_one(groups, tensors):
    for spec in ["C1", "S3", "D8"]:
        g = groups(spec)
        h = subgroup_generated(g, [])
        for n in (1, 2, 3):
            assert rel_n_tensor_degree(g, tensors(spec), h, n) == 1


def test_centralizer_product_identity(groups, tensors):
    # |H C(x)| * |H n C(x)| = |H| * |C(x)| for every subgroup and element
    for spec in ["S3", "D8", "C12", "Q8"]:
        g = groups(spec)
        data = tensors(spec)
        for h in all_subgroups(g):
            hset = set(h.elements)
            for x in g.elements():
                cset = {a for a in g.elements() if data.trivial[a][x]}
                prod = {g.mul[a][c] for a in h.elements for c in cset}
                assert len(prod) * len(hset & cset) == h.order * len(cset)


def test_dp_equals_naive_small(groups, tensors):
    for spec in ["C4", "C6", "S3", "D8", "Q8"]:
        g = groups(spec)
        data = tensors(spec)
        for h in all_subgroups(g):
            for n in (1, 2, 3):
                assert rel_n_tensor_degree(g, data, h, n) == rel_n_tensor_degree_naive(
                    g, data, h, n
                ), (spec, h.elements, n)


def test_dp_equals_naive_order_16(groups, tensors):
    # the larger corpus groups, wherever the naive tuple count stays modest
    for spec in ["D16", "Q16", "C2xC2xC2", "C3xC3", "A4", "D12", "C2xC4"]:
        g = groups(spec)
        data = tensors(spec)
        for h in all_subgroups(g):
            for n in (1, 2, 3):
                if h.order**n * g.order > 10**6:
                    continue
                assert rel_n_tensor_degree(g, data, h, n) == rel_n_tensor_degree_naive(
                    g, data, h, n
                ), (spec, h.elements, n)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["C2", "C4", "C6", "C2xC2", "S3", "D8"]),
    st.integers(1, 4),
    st.data(),
)
def test_degree_dp_matches_naive_property(spec, n, data):
    g = group_from_spec(spec)
    t = tensor_square(g)
    subs = all_subgroups(g)
    h = subs[data.draw(st.integers(0, len(subs) - 1))]
    assert rel_n_tensor_degree(g, t, h, n) == rel_n_tensor_degree_naive(g, t, h, n)


def test_degree_one_when_subgroup_tensor_central(groups, tensors):
    # any subgroup inside the n-th tensor central term has degree exactly 1
    from grouptensor import tensor_upper_central

    for spec in ["C4", "D8", "C2xC4"]:
        g = groups(spec)
        data = tensors(spec)
        for n in (1, 2, 3):
            zn = tensor_upper_central(g, data, n)
            for h in all_subgroups(g):
                if set(h.elements) <= set(zn.elements):
                    assert rel_n_tensor_degree(g, data, h, n) == 1


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "A4", "S4"])
def test_context_chain_matches_both_oracles(groups, tensors, spec):
    # one chain per subgroup, read out of order and again: every value is
    # the distribution's and the tuple count's, where that does not refuse
    g, data = groups(spec), tensors(spec)
    ctx = EntryContext(spec, g, Config())
    reads = (5, 1, 3, 2, 5, 4)
    for h in all_subgroups(g):
        expected = {n: rel_n_tensor_degree_distribution(g, data, h, n) for n in set(reads)}
        for n, value in expected.items():
            try:
                assert value == rel_n_tensor_degree_naive(g, data, h, n), (h.elements, n)
            except LimitError:
                assert h.order**n * g.order > NAIVE_TUPLE_LIMIT
        assert [ctx.dn(h, n) for n in reads] == [expected[n] for n in reads], h.elements
        assert len(ctx._memos["chain"][h.elements]) == 5


def test_context_chain_grows_only_to_the_largest_n(groups):
    g = groups("S3")
    ctx = EntryContext("S3", g, Config())
    full = full_subgroup(g)
    chain_len = lambda: len(ctx._memos["chain"][full.elements])
    ctx.dn(full, 2)
    ctx.dn(full, 1)
    assert chain_len() == 2
    assert ctx.dn(full, 4) == Fraction(15, 16)
    assert chain_len() == 4
