"""Finite group isomorphism testing and the subset-group reachability relation.

G2 "underlies" G1 when G1 carries a subset family forming a group isomorphic
to G2.  Isomorphism itself runs a cheap invariant prefilter (order, abelian
flag, element-order histogram, center size, conjugacy class sizes) followed by
backtracking over images of a greedy generating chain; any mapping returned
has been verified entry by entry.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, Sequence

from .classify import lattice_power_groups
from .errors import InternalFaultError
from .groups import DEFAULT_SEARCH_CAP, FiniteGroup, generating_set
from .search import PowerGroupFamily

__all__ = [
    "GroupFingerprint",
    "UnderliesWitness",
    "are_isomorphic",
    "fingerprint",
    "underlies",
    "underlies_matrix",
    "matrix_to_csv",
    "matrix_is_transitive",
]


@dataclass(frozen=True)
class GroupFingerprint:
    """Isomorphism invariants used as a prefilter (equal fingerprints required)."""

    order: int
    abelian: bool
    element_orders: tuple[tuple[int, int], ...]  # (order, multiplicity), sorted
    center_size: int
    conjugacy_class_sizes: tuple[int, ...]  # sorted multiset


def fingerprint(g: FiniteGroup) -> GroupFingerprint:
    n = g.order
    hist: dict[int, int] = {}
    for a in range(n):
        k = g.element_order(a)
        hist[k] = hist.get(k, 0) + 1
    center = sum(
        1 for a in range(n) if all(g.table[a][b] == g.table[b][a] for b in range(n))
    )
    seen = 0
    class_sizes = []
    for a in range(n):
        if seen >> a & 1:
            continue
        orbit = 0
        for h in range(n):
            orbit |= 1 << g.table[g.table[h][a]][g.inverses[h]]
        seen |= orbit
        class_sizes.append(orbit.bit_count())
    return GroupFingerprint(
        order=n,
        abelian=g.is_abelian,
        element_orders=tuple(sorted(hist.items())),
        center_size=center,
        conjugacy_class_sizes=tuple(sorted(class_sizes)),
    )


def _extend_map(
    g1: FiniteGroup, g2: FiniteGroup, gens: Sequence[int], images: Sequence[int]
) -> Optional[list[int]]:
    """Grow the homomorphism determined by generator images; None on conflict."""
    n = g1.order
    phi = [-1] * n
    phi[g1.identity] = g2.identity
    used = 1 << g2.identity
    queue = [g1.identity]
    for a, b in zip(gens, images):
        if phi[a] == -1:
            if used >> b & 1:
                return None
            phi[a] = b
            used |= 1 << b
            queue.append(a)
        elif phi[a] != b:
            return None
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for a, b in zip(gens, images):
            y = g1.table[x][a]
            fy = g2.table[phi[x]][b]
            if phi[y] == -1:
                if used >> fy & 1:
                    return None
                phi[y] = fy
                used |= 1 << fy
                queue.append(y)
            elif phi[y] != fy:
                return None
    if len(queue) != n:
        return None
    return phi


def are_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> Optional[tuple[int, ...]]:
    """An explicit isomorphism g1 -> g2 as an index mapping, or None.

    The mapping is re-verified as a bijective homomorphism before returning,
    so a non-None result is a proof.
    """
    if g1.order != g2.order:
        return None
    if fingerprint(g1) != fingerprint(g2):
        return None
    gens = generating_set(g1, g1.full_mask)
    orders1 = [g1.element_order(a) for a in gens]
    cands = [
        [b for b in range(g2.order) if g2.element_order(b) == k] for k in orders1
    ]

    def rec(i: int, images: list[int]) -> Optional[list[int]]:
        if i == len(gens):
            return _extend_map(g1, g2, gens, images)
        for b in cands[i]:
            phi = rec(i + 1, images + [b])
            if phi is not None:
                return phi
        return None

    phi = rec(0, [])
    if phi is None:
        return None
    n = g1.order
    if sorted(phi) != list(range(n)):  # pragma: no cover
        raise InternalFaultError("candidate mapping is not a bijection")
    for a in range(n):
        for b in range(n):
            if phi[g1.table[a][b]] != g2.table[phi[a]][phi[b]]:  # pragma: no cover
                raise InternalFaultError("candidate mapping failed verification")
    return tuple(phi)


@dataclass(frozen=True)
class UnderliesWitness:
    """A family over the big group plus an isomorphism onto the target."""

    family: PowerGroupFamily
    mapping: tuple[int, ...]  # family abstract group (normalized) -> target


def underlies(
    g1: FiniteGroup, g2: FiniteGroup, *, max_order: int = DEFAULT_SEARCH_CAP
) -> Optional[UnderliesWitness]:
    """Does g1 carry a subset family forming a group isomorphic to g2?

    The candidates are g1's coset families H/N from its subgroup lattice, in
    (order, masks) order, so the witness is the first such family.
    """
    target_fp = fingerprint(g2)
    for fam in lattice_power_groups(g1, max_order=max_order):
        if fam.order != g2.order:
            continue
        abstract = fam.abstract_group()
        if fingerprint(abstract) != target_fp:
            continue
        phi = are_isomorphic(abstract, g2)
        if phi is not None:
            return UnderliesWitness(family=fam, mapping=phi)
    return None


def underlies_matrix(
    groups: Sequence[FiniteGroup], *, max_order: int = DEFAULT_SEARCH_CAP
) -> list[list[bool]]:
    """matrix[i][j] = groups[j] underlies groups[i]."""
    fams: list[list[FiniteGroup]] = []
    for g in groups:
        fams.append([f.abstract_group() for f in lattice_power_groups(g, max_order=max_order)])
    fps = [fingerprint(g) for g in groups]
    out = []
    for i, _ in enumerate(groups):
        row = []
        for j, target in enumerate(groups):
            hit = any(
                fingerprint(a) == fps[j] and are_isomorphic(a, target) is not None
                for a in fams[i]
                if a.order == target.order
            )
            row.append(hit)
        out.append(row)
    return out


def matrix_is_transitive(matrix: Sequence[Sequence[bool]]) -> bool:
    n = len(matrix)
    return all(
        not (matrix[i][j] and matrix[j][k]) or matrix[i][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def matrix_to_csv(names: Sequence[str], matrix: Sequence[Sequence[bool]]) -> str:
    """Render the relation as CSV with 1 = column group underlies row group."""
    buf = io.StringIO()
    buf.write("," + ",".join(names) + "\n")
    for name, row in zip(names, matrix):
        buf.write(name + "," + ",".join("1" if v else "0" for v in row) + "\n")
    return buf.getvalue()
