"""Which groups live inside which, as groups of subsets?

Say G2 "underlies" G1 when some family of subsets of G1 forms a group
isomorphic to G2.  On finite carriers those families are exactly the
quotients H/N over the subgroup lattice, so the relation is computable, and
it comes out reflexive and transitive on the standard catalog.

Run:  python demos/underlies_relation.py
"""

from powergroups import (
    group_from_name,
    matrix_is_transitive,
    matrix_to_csv,
    underlies,
    underlies_matrix,
)

NAMES = ("trivial", "C2", "C3", "C4", "V4", "C5", "C6", "S3", "C8", "D4", "Q8")
groups = [group_from_name(n) for n in NAMES]

matrix = underlies_matrix(groups)
print(matrix_to_csv(NAMES, matrix))
print("reflexive:", all(matrix[i][i] for i in range(len(NAMES))))
print("transitive:", matrix_is_transitive(matrix))

# Rows read "which catalog groups underlie this one".
for name, row in zip(NAMES, matrix):
    inside = [n for n, hit in zip(NAMES, row) if hit]
    print(f"  {name:7s} carries subset groups isomorphic to: {', '.join(inside)}")

# A positive answer comes with a concrete family, not just a bit.
w = underlies(group_from_name("S3"), group_from_name("C2"))
members = [tuple(i for i in range(6) if m >> i & 1) for m in w.family.elements]
print(f"\nC2 underlies S3 via the family {members}")
print(f"(two singleton cosets inside a 2-element subgroup; mapping {w.mapping})")

# The asymmetric corner of the matrix: D4 and Q8 have the same order and both
# carry C2, C4 and V4 families, but neither carries the other -- their subset
# groups are quotients, and no quotient of one is isomorphic to the other.
d4_row = dict(zip(NAMES, matrix[NAMES.index("D4")]))
q8_row = dict(zip(NAMES, matrix[NAMES.index("Q8")]))
print(f"\nD4 carries Q8: {d4_row['Q8']}, Q8 carries D4: {q8_row['D4']}")
