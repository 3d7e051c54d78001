"""Textbook presentations of named families, to cross-check coset enumeration."""

from grouptensor import Presentation, SpecError


def standard_presentation(family: str, parameter: int) -> Presentation:
    """Textbook presentation for a named family, to cross-check enumeration."""
    if family == "cyclic":
        n = parameter
        if n < 1:
            raise SpecError("cyclic parameter must be >= 1")
        return Presentation(1, ((tuple([1] * n) if n > 0 else (1,)),))
    if family == "dihedral":
        order = parameter
        if order < 4 or order % 2:
            raise SpecError("dihedral order must be an even number >= 4")
        m = order // 2
        return Presentation(2, (tuple([1] * m), (2, 2), (2, 1, -2, 1)))
    if family == "quaternion":
        order = parameter
        if order not in (8, 16):
            raise SpecError("quaternion order must be 8 or 16")
        k = order // 4
        return Presentation(2, (tuple([1] * 2 * k), (2, 2) + tuple([-1] * k), (2, 1, -2, 1)))
    if family == "symmetric":
        m = parameter
        if not 1 <= m <= 5:
            raise SpecError("symmetric degree must be in 1..5")
        if m == 1:
            return Presentation(1, ((1,),))
        rel = []
        for i in range(1, m):
            rel.append((i, i))
        for i in range(1, m - 1):
            rel.append((i, i + 1) * 3)
        for i in range(1, m):
            for j in range(i + 2, m):
                rel.append((i, j) * 2)
        return Presentation(m - 1, tuple(rel))
    if family == "alternating":
        m = parameter
        if not 1 <= m <= 5:
            raise SpecError("alternating degree must be in 1..5")
        if m <= 2:
            return Presentation(1, ((1,),))
        if m == 3:
            return Presentation(1, ((1, 1, 1),))
        if m == 4:
            return Presentation(2, ((1, 1, 1), (2, 2, 2), (1, 2) * 2))
        return Presentation(2, ((1, 1, 1, 1, 1), (2, 2, 2), (1, 2) * 2))
    raise SpecError(f"no standard presentation for family {family!r}")
