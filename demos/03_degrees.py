"""Exact degree quantities, end to end.

Everything is a reduced fraction: the commuting probability d(G), the
tensor-triviality probability for a random pair, and the n-step relative
form where a left-normed commutator of subgroup elements is paired against
a group element, read from the commutator chain of the subgroup: level k
counts the k-tuples by their left-normed commutator.
"""

from grouptensor import (
    comm_degree,
    format_decimal,
    format_fraction,
    group_from_spec,
    n_tensor_degree,
    rel_n_tensor_degree,
    subgroup_from_words,
    tensor_degree,
    tensor_square,
)
from grouptensor.groups import full_subgroup


def show(label, value):
    print(f"  {label} = {format_fraction(value)} ({format_decimal(value)})")


print("== commuting probability vs tensor degree ==")
for spec in ["C2", "C4", "S3", "D8", "Q8", "A4"]:
    g = group_from_spec(spec)
    data = tensor_square(g)
    print(f"{spec}:")
    show("d(G)       ", comm_degree(g))
    show("d_tensor(G)", tensor_degree(g, data))

print()
print("== level 2 of the commutator chain the degrees are read from ==")
s3 = group_from_spec("S3")
data = tensor_square(s3)
chain = []  # extended in place by every degree read from it
rel_n_tensor_degree(s3, data, full_subgroup(s3), 2, chain)
counts = dict(sorted(chain[1].items()))
print(f"S3, pairs by commutator value: {counts} (total {sum(counts.values())})")

print()
print("== n-step degrees of S3 hit (2^n - 1)/2^n exactly ==")
for n in (1, 2, 3, 4):
    show(f"d_{n}(S3)", n_tensor_degree(s3, data, n))

print()
print("== worked subgroup examples ==")
c4 = group_from_spec("C4")
h = subgroup_from_words(c4, "a^2")
show("d_2(<a^2>, C4)", rel_n_tensor_degree(c4, tensor_square(c4), h, 2))

d8 = group_from_spec("D8")
hd = subgroup_from_words(d8, "a^2,a*b")
show("d_4(<a^2,ab>, D8)", rel_n_tensor_degree(d8, tensor_square(d8), hd, 4))
print(
    "  note: <a^2, ab> is abelian, so every 4-step commutator is trivial and\n"
    "  the value is forced to 1; the 192/2048 figure sometimes quoted for\n"
    "  this subgroup is inconsistent with the definition (the check suite\n"
    "  flags it as a discrepancy record)."
)
