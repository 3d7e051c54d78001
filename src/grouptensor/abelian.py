"""Structure of finite abelian groups and their integral tensor products.

For abelian groups A and B with primary cyclic decompositions
``A = C_{q1} x ... x C_{qk}`` and ``B = C_{r1} x ... x C_{rl}`` the integral
tensor product is ``A (x)_Z B = prod_{i,j} C_{gcd(qi, rj)}``, and ``x (x) y``
vanishes exactly when ``x_i * y_j = 0 (mod gcd(qi, rj))`` for every pair of
coordinates.  ``bilinear_tensor`` is the one implementation of that pairing:
``tensor.tensor_square`` uses it for the tensor square of an abelian group
(A = B = G) and for the cross terms ``A^ab (x) K^ab`` of a direct product.
The tests compare it with coset enumeration, which never calls it.
"""

from __future__ import annotations

from math import gcd, prod
from typing import NamedTuple

from .errors import ConsistencyError
from .groups import (
    FiniteGroup,
    element_orders,
    prime_factors,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)


class AbelianTensorOracle(NamedTuple):
    """Order of ``A (x)_Z B`` and ``trivial[x][y]``: whether ``x (x) y`` vanishes."""

    order: int
    trivial: tuple[tuple[bool, ...], ...]


def abelian_basis(group: FiniteGroup) -> list[int]:
    """Independent generators of prime-power order whose spans give all of G.

    Works prime by prime: inside each Sylow subgroup an element of maximal
    order generates a direct summand; a basis of the quotient is lifted and
    corrected by a power of that element so the lifts have the right order.
    """
    if not group.is_abelian():
        raise ValueError("abelian basis requested for a nonabelian group")
    if group.order == 1:
        return []
    basis: list[int] = []
    orders = element_orders(group)
    for p in prime_factors(group.order):
        sylow = [a for a in group.elements() if _is_power_of(orders[a], p)]
        sgrp, embed = subgroup_as_group(subgroup_generated(group, sylow))
        for b in _p_group_basis(sgrp):
            basis.append(embed[b])
    return basis


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _p_group_basis(group: FiniteGroup) -> list[int]:
    if group.order == 1:
        return []
    orders = element_orders(group)
    x = max(group.elements(), key=lambda a: (orders[a], -a))
    cyc = subgroup_generated(group, (x,))
    if cyc.order == group.order:
        return [x]
    q, proj = quotient(group, cyc)
    basis = [x]
    for ybar in _p_group_basis(q):
        y = min(g for g in group.elements() if proj[g] == ybar)
        m = q.element_order(ybar)
        target = group.power(y, m)  # lands in <x>; divide it out
        t = next(t for t in range(orders[x]) if group.power(x, t) == target)
        if t % m != 0:
            raise ConsistencyError("basis lift correction is not divisible")
        y = group.mul[y][group.power(group.inv[x], t // m)]
        if group.element_order(y) != m:
            raise ConsistencyError("corrected basis lift has the wrong order")
        basis.append(y)
    return basis


def abelian_coordinates(
    group: FiniteGroup,
) -> tuple[list[int], list[int], dict[int, tuple[int, ...]]]:
    """Basis, basis orders, and the coordinate tuple of every element."""
    basis = abelian_basis(group)
    orders = [group.element_order(b) for b in basis]
    coords: dict[int, tuple[int, ...]] = {}
    stack = [(0, ())]
    for b, q in zip(basis, orders):
        stack = [
            (group.mul[elem][group.power(b, e)], tup + (e,))
            for elem, tup in stack
            for e in range(q)
        ]
    for elem, tup in stack:
        if elem in coords:
            raise ConsistencyError("abelian basis is not independent")
        coords[elem] = tup
    if len(coords) != group.order:
        raise ConsistencyError("abelian basis does not span the group")
    return basis, orders, coords


def bilinear_tensor(left: FiniteGroup, right: FiniteGroup) -> AbelianTensorOracle:
    """``left (x)_Z right`` of two abelian groups from their cyclic decompositions.

    ``trivial`` is indexed by the elements of ``left``, then of ``right``.
    """
    _, lorders, lcoords = abelian_coordinates(left)
    _, rorders, rcoords = abelian_coordinates(right)
    mods = [
        (i, j, gcd(qi, rj)) for i, qi in enumerate(lorders) for j, rj in enumerate(rorders)
    ]
    order = prod(m for _, _, m in mods)

    def is_trivial(x: int, y: int) -> bool:
        cx, cy = lcoords[x], rcoords[y]
        return all((cx[i] * cy[j]) % m == 0 for i, j, m in mods)

    trivial = tuple(
        tuple(is_trivial(x, y) for y in right.elements()) for x in left.elements()
    )
    return AbelianTensorOracle(order=order, trivial=trivial)
