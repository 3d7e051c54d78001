"""Tour of the group construction toolkit.

Every group is a plain multiplication table over indices 0..n-1 with the
identity at 0.  Spec strings like "D8" or "C2xC4" build the named families;
subgroups are index tuples; quotients come with their projection map.
"""

from math import lcm

from grouptensor import (
    all_subgroups,
    center,
    derived_subgroup,
    group_from_spec,
    nilpotency_class,
    normal_subgroups,
    quotient,
    subgroup_from_words,
    upper_central_series,
)

print("== building groups from spec strings ==")
for spec in ["C6", "D8", "Q8", "S4", "C2xC4", "E2^3"]:
    g = group_from_spec(spec)
    print(
        f"{spec:7s} order {g.order:3d}  abelian={str(g.is_abelian()):5s} "
        f"labels={g.generator_labels}"
    )

print()
print("== subgroup lattice of D8 ==")
d8 = group_from_spec("D8")
for h in all_subgroups(d8):
    marker = "normal" if h.is_normal() else "      "
    print(f"  order {h.order}  {marker}  elements {h.elements}")
print(f"normal subgroups: {len(normal_subgroups(d8))} of {len(all_subgroups(d8))}")

print()
print("== words over the canonical generators ==")
h = subgroup_from_words(d8, "a^2,a*b")
print(f"<a^2, a*b> = {h.elements} (order {h.order})")

print()
print("== quotients and central series ==")
zd8 = center(d8)
q, proj = quotient(d8, zd8)
exponent = lcm(*map(q.element_order, q.elements()))
print(f"D8 / Z(D8) has order {q.order} and exponent {exponent}")
print(f"derived subgroup of D8: {derived_subgroup(d8).elements}")
print(f"upper central series orders: {[t.order for t in upper_central_series(d8)]}")
print(f"nilpotency class: D8 -> {nilpotency_class(d8)}, "
      f"S3 -> {nilpotency_class(group_from_spec('S3'))}")
