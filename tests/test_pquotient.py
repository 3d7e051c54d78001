import hashlib

import pytest

from grouptensor import group_from_spec
from grouptensor.coset_enum import tensor_square_presentation
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
    quotient = two_quotient(standard_presentation(family, param))
    assert quotient.length == length and quotient.order == 2**length
    mul, letters = quotient.mul, quotient.letters()
    for g in range(1, len(quotient.images) + 1):
        assert mul(letters[g], letters[-g]) == 0 == mul(letters[-g], letters[g])


def test_the_quotient_satisfies_every_relator():
    presentation = standard_presentation("quaternion", 16)
    quotient = two_quotient(presentation)
    letters = quotient.letters()
    for word in presentation.relators:
        value = 0
        for letter in word:
            value = quotient.mul(value, letters[letter])
        assert value == 0, word


# sha256 of repr((length, images, products)) for two_quotient of nu(G), where
# products holds mul(a_i, a_j) for all i, j: those fix power and conj
NU_QUOTIENTS = {
    "D8": (11, "29502214ec8c79bcdd7148fac1530b32ed269bc3e75beb338b9dee9b67ba02f6"),
    "Q8": (12, "69284aea7d165021f46eae62b71e111b43ac41746a3932c8d75673b281013d7e"),
    "D16": (14, "ed4977f85c141ea0f761b6817a188a52709c4e72981accf3c4fd27ae73a02970"),
    "Q16": (14, "2d3ab87f0836bce89e76ae3a62a9d50d3f78c4a340891b8bc06ae613eead319c"),
    "D32": (17, "542d3831859c19cbed31951533c61ebc3b9b0e12a94bb3c3e4e5cb89602569b6"),
    "D64": (20, "f88b934dcf594341693142f03d71873900e31de3a8da34677f5f12768375ae39"),
    "C2xQ8": (19, "8295c38c2f73e6c50dd6817971f506e9a4ea6c29e088b1bc01228f6b9546b93c"),
    "Q8xC4": (22, "32a5af0fcf2ce4167bbfe2e779edb11ae72aca61f912acd486cb04c101b943d5"),
}


@pytest.mark.parametrize("spec", NU_QUOTIENTS)
def test_the_pc_presentation_of_nu_is_pinned(spec):
    quotient = two_quotient(tensor_square_presentation(group_from_spec(spec)))
    n = quotient.length
    products = tuple(quotient.mul(1 << i, 1 << j) for i in range(n) for j in range(n))
    digest = hashlib.sha256(repr((n, quotient.images, products)).encode()).hexdigest()
    assert (n, digest) == NU_QUOTIENTS[spec]
