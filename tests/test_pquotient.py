import pytest

from grouptensor.pquotient import two_quotient
from presentations import standard_presentation


@pytest.mark.parametrize(
    "family,param,length",
    [
        ("cyclic", 1, 0),
        ("cyclic", 3, 0),
        ("cyclic", 4, 2),
        ("cyclic", 12, 2),
        ("dihedral", 8, 3),
        ("dihedral", 16, 4),
        ("dihedral", 12, 2),
        ("quaternion", 8, 3),
        ("quaternion", 16, 4),
        ("symmetric", 4, 1),
        ("alternating", 4, 0),
        ("alternating", 5, 0),
    ],
)
def test_largest_two_quotient_of_standard_presentations(family, param, length):
    # the 2-part of a cyclic group, D12 = S3 x C2 onto C2 x C2, S4 onto C2
    quotient = two_quotient(standard_presentation(family, param), 8)
    assert quotient.length == length and quotient.order == 2**length
    mul, letters = quotient.mul, quotient.letters()
    for g in range(1, len(quotient.images) + 1):
        assert mul(letters[g], letters[-g]) == 0 == mul(letters[-g], letters[g])


def test_the_quotient_satisfies_every_relator():
    presentation = standard_presentation("quaternion", 16)
    quotient = two_quotient(presentation, 8)
    letters = quotient.letters()
    for word in presentation.relators:
        value = 0
        for letter in word:
            value = quotient.mul(value, letters[letter])
        assert value == 0, word


def test_a_class_longer_than_the_bound_gives_none():
    assert two_quotient(standard_presentation("dihedral", 16), 3) is None
    assert two_quotient(standard_presentation("dihedral", 16), 4).length == 4
