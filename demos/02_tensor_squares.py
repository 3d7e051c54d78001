"""Tensor squares: coset enumeration, the bilinear formula and direct products.

The tensor square of a group G is presented on one generator per ordered
pair of elements, with two families of length-3 relators.  Enumerating the
cosets of the trivial subgroup realizes it concretely: the coset count is
the order and row 0 tells which pair symbols collapse to the identity.
``tensor_square`` enumerates only when it must: abelian groups get the
integral tensor square from a cyclic decomposition, and direct products are
assembled from the squares of their factors.
"""

from grouptensor import (
    abelian_tensor_square_oracle,
    generator_element,
    group_from_spec,
    j2_order,
    tensor_center,
    tensor_class,
    tensor_square,
    tensor_square_presentation,
    todd_coxeter,
)

print("== presentation sizes ==")
for spec in ["C2", "S3", "D8"]:
    g = group_from_spec(spec)
    pres = tensor_square_presentation(g)
    print(f"{spec:4s} |G|={g.order}  generators={pres.generator_count:3d} "
          f"relators={len(pres.relators):5d}")

print()
print("== tensor squares across small groups ==")
for spec in ["C4", "C2xC2", "S3", "D8", "Q8", "A4", "D16"]:
    g = group_from_spec(spec)
    data = tensor_square(g)
    cls = tensor_class(g, data)
    print(
        f"{spec:6s} |G (x) G| = {data.order:4d}  |J2| = {j2_order(g, data):3d}  "
        f"|tensor center| = {tensor_center(g, data).order}  "
        f"tensor class = {cls if cls is not None else 'none'}"
    )

print()
print("== abelian groups: enumeration vs bilinear oracle ==")
for spec in ["C6", "C8", "C2xC4", "C3xC3", "C2xC2xC2"]:
    g = group_from_spec(spec)
    table = todd_coxeter(tensor_square_presentation(g))
    n = g.order
    enumerated = tuple(
        tuple(generator_element(table, x * n + y) == 0 for y in range(n)) for x in range(n)
    )
    oracle = abelian_tensor_square_oracle(g)
    match = table.coset_count == oracle.order and enumerated == oracle.trivial
    print(f"{spec:9s} enumerated {table.coset_count:4d}  oracle {oracle.order:4d}  "
          f"full matrix match: {match}")

print()
print("== direct products from their factors, no enumeration ==")
for spec in ["C2xD8", "S3xS3", "C2xQ8", "Q8xC4"]:
    data = tensor_square(group_from_spec(spec))
    print(f"{spec:6s} |G (x) G| = {data.order}")

print()
print("== which pairs collapse in the tensor square of the direct product S3xS3? ==")
s3xs3 = group_from_spec("S3xS3")
data = tensor_square(s3xs3)
print("  element 6a + b is the pair (a, b) of S3 elements; . = trivial pair")
for x in s3xs3.elements():
    row = "".join("." if data.trivial[x][y] else "#" for y in s3xs3.elements())
    print(f"  {x:2d}: {row}")
