"""Walk through the finite theory on S3 and klein4.

Every family of nonempty subsets of a finite group that forms a group under
AB = {ab} turns out to be the coset family of a normal subgroup N inside some
subgroup H.  This script enumerates all of them for S3, checks each against
the classifier, and then builds one coset group by hand to watch the
epimorphism a -> aE do its work.

Run:  python demos/finite_census.py
"""

import tempfile

from powergroups import (
    all_power_groups,
    build_census,
    build_coset_group,
    coset_group_epimorphism_check,
    group_from_name,
    iter_bits,
    match_subquotient,
    normal_subgroups_of,
    read_records,
    subset,
    write_records,
)


def show(mask):
    return "{" + ",".join(str(i) for i in iter_bits(mask)) + "}"


g = group_from_name("S3")
print(f"carrier: {g.name}, order {g.order}, abelian: {g.is_abelian}")
print(f"subgroups: {[h.bit_count() for h in g.subgroup_masks]}")
print()

# Every subset family forming a group, found by searching the idempotents.
families = all_power_groups(g)
print(f"{len(families)} subset families form groups over S3:")
for fam in families:
    d = match_subquotient(fam)
    members = " ".join(show(m) for m in fam.elements)
    print(f"  order {fam.order}: {members}")
    print(f"    = cosets of N={show(d.kernel)} in H={show(d.carrier)}")

# Cross-check the count against the subgroup lattice: one family per pair
# (H, N normal in H).
lattice = sum(len(normal_subgroups_of(g, h)) for h in g.subgroup_masks)
print(f"\nlattice count sum_H #normal(H) = {lattice}  (matches: {lattice == len(families)})")

# Now the constructive direction on klein4: pick an idempotent E and a
# subgroup H that commutes with it, and the translates {aE} form a group with
# (aE)(bE) = (ab)E.  The map a -> aE is onto with kernel K = {a : aE = E}.
k4 = group_from_name("klein4")
e = subset(k4, [0, 1])  # a 2-element subgroup, hence idempotent
d = build_coset_group(k4, e, k4.full_mask)
rep = coset_group_epimorphism_check(d)
print(f"\nklein4, E={show(e)}, H=all:")
print(f"  cosets: {[show(m) for m in d.family.elements]}")
print(f"  a -> aE surjective: {rep.surjective}, kernel {show(rep.kernel)}")
print(f"  quotient order {rep.quotient_order}, all checks pass: {rep.ok}")

# The census serializes one record per line, byte-stable across runs, so two
# machines can diff their outputs.
with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as fh:
    path = fh.name
write_records(path, build_census(g, "S3"))
records = read_records(path)
print(f"\nwrote {len(records)} census records to {path}")
print(f"every record classified and flagged consistently: "
      f"{all(r.subquotient and r.identity_subgroup for r in records)}")
