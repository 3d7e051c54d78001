"""Tensor squares: coset enumeration, the bilinear formula and direct products.

The tensor square G (x) G is the subgroup [G, G^phi] of Rocco's group nu(G),
which is presented on a small generating set X of G and a copy X^phi.
Enumerating the cosets of G in nu(G) realizes it concretely: there are
|G| |G (x) G| cosets, and x (x) y is trivial exactly when x fixes the coset
G y^phi.  ``tensor_square`` enumerates only when it must: abelian groups get
the integral tensor square from a cyclic decomposition, and groups whose
multiplication table is a direct product are assembled from the squares of
their factors.  The factors are read from the table (``direct_factors``), so
a relabelled product or a quotient that is a product takes the same path.
For a group of order 2^k, nu(G) is a 2-group and is built as the largest
2-quotient of its presentation, a pc presentation of length log2 |nu(G)|.
"""

from grouptensor import (
    direct_factors,
    group_from_spec,
    j2_order,
    tensor_center,
    tensor_class,
    tensor_square,
    tensor_square_presentation,
    todd_coxeter,
)
from grouptensor.abelian import bilinear_tensor

print("== presentation sizes of nu(G) ==")
for spec in ["C2", "S3", "D8", "A5"]:
    g = group_from_spec(spec)
    pres = tensor_square_presentation(g)
    print(f"{spec:4s} |G|={g.order:2d}  generators={pres.generator_count}  "
          f"relators={len(pres.relators):3d}  letters={sum(map(len, pres.relators)):4d}")

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
    oracle = bilinear_tensor(g, g)
    enumerated = table.coset_count // g.order
    print(f"{spec:9s} cosets {table.coset_count:4d} = {g.order:2d} x {enumerated:3d}  "
          f"oracle {oracle.order:3d}  match: {enumerated == oracle.order}")

print()
print("== direct products from their factors, no enumeration ==")
for spec in ["C2xD8", "S3xS3", "C2xQ8", "Q8xC4"]:
    g = group_from_spec(spec)
    n, m = direct_factors(g)
    data = tensor_square(g)
    print(f"{spec:6s} |N| = {n.order:2d}  |M| = {m.order:2d}  |G (x) G| = {data.order}")

print()
print("== a 2-group from the largest 2-quotient of nu(G), no enumeration ==")
print(f"D64    |G (x) G| = {tensor_square(group_from_spec('D64')).order}")

print()
print("== which pairs collapse in the tensor square of the direct product S3xS3? ==")
s3xs3 = group_from_spec("S3xS3")
data = tensor_square(s3xs3)
print("  element 6a + b is the pair (a, b) of S3 elements; . = trivial pair")
for x in s3xs3.elements():
    row = "".join("." if data.trivial[x][y] else "#" for y in s3xs3.elements())
    print(f"  {x:2d}: {row}")
