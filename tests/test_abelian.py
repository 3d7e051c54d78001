from fractions import Fraction

import pytest

from grouptensor import abelian_basis, group_from_spec
from grouptensor.abelian import abelian_coordinates, bilinear_tensor


def factor_orders(spec):
    g = group_from_spec(spec)
    return sorted(g.element_order(b) for b in abelian_basis(g))


def test_basis_prime_power_factors():
    assert factor_orders("C12") == [3, 4]
    assert factor_orders("C2xC4") == [2, 4]
    assert factor_orders("E2^3") == [2, 2, 2]
    assert factor_orders("C3xC3") == [3, 3]
    assert factor_orders("C6") == [2, 3]
    assert factor_orders("C8") == [8]
    assert factor_orders("C1") == []


def test_coordinates_are_a_bijection():
    for spec in ["C1", "C2", "C12", "C2xC4", "E2^3", "C3xC3", "C2xC2"]:
        g = group_from_spec(spec)
        _, orders, coords = abelian_coordinates(g)
        assert len(coords) == g.order
        total = 1
        for q in orders:
            total *= q
        assert total == g.order


def test_basis_rejects_nonabelian():
    with pytest.raises(ValueError):
        abelian_basis(group_from_spec("S3"))


def test_oracle_orders():
    expected = {
        "C1": 1,
        "C2": 2,
        "C3": 3,
        "C8": 8,
        "C2xC2": 16,
        "C2xC4": 32,
        "C2xC2xC2": 512,
        "C3xC3": 81,
        "C12": 12,
        "C6": 6,
    }
    for spec, order in expected.items():
        g = group_from_spec(spec)
        assert bilinear_tensor(g, g).order == order


def test_oracle_triviality_cyclic_prime():
    # in C_p the pair (x, y) is trivial exactly when x*y = 0 mod p
    for p in (2, 3, 5):
        g = group_from_spec(f"C{p}")
        oracle = bilinear_tensor(g, g)
        for x in range(p):
            for y in range(p):
                assert oracle.trivial[x][y] == ((x * y) % p == 0)
        hits = sum(1 for x in range(p) for y in range(p) if oracle.trivial[x][y])
        assert Fraction(hits, p * p) == Fraction(2 * p - 1, p * p)


def test_oracle_triviality_symmetric():
    for spec in ["C4", "C2xC4", "C3xC3"]:
        g = group_from_spec(spec)
        oracle = bilinear_tensor(g, g)
        n = len(oracle.trivial)
        for x in range(n):
            assert oracle.trivial[0][x] and oracle.trivial[x][0]
            for y in range(n):
                assert oracle.trivial[x][y] == oracle.trivial[y][x]
