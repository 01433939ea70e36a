"""The searches that find every family of subsets forming a group under the
subset product without the subgroup lattice: the census's test oracles.

``enum`` and ``underlies`` take their families from the subgroup lattice
(classify.lattice_power_groups).  The idempotent search (all_power_groups) and
the exhaustive scan (brute_force_power_groups) reach the same families without
any of its code: they read the carrier's table themselves, list each unit
group's subgroups by closure_mask (the closure table validation uses), and
package each family with groups.power_group_family.

The organizing fact: the identity of any such family is an idempotent subset E,
every member A satisfies EA = AE = A (so A lives in the local monoid at E), and
A has an inverse with respect to E (so A is a unit of that monoid).  The family
is therefore a subgroup of the unit group at E, and distinct idempotents give
disjoint collections because a group of subsets contains exactly one idempotent.
A doubly exponential brute-force enumerator over all families of nonempty
subsets (orders <= 4) serves as the independent oracle for all of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CayleyTableError, NotIdempotentError, check_cap
from .groups import (
    SEARCH_CAP,
    FiniteGroup,
    PowerGroupFamily,
    _check_mask,
    closure_mask,
    iter_bits,
    power_group_family,
    validate_cayley,
)

__all__ = [
    "LocalMonoid",
    "all_idempotents",
    "all_power_groups",
    "brute_force_power_groups",
    "local_monoid",
    "unit_group",
]

BRUTE_FORCE_CAP = 4  # brute_force_power_groups scans 2^(2^n - 1) families


def _closed(t: Sequence[Sequence[int]], mask: int) -> bool:
    """Is the nonempty mask closed under the table's product?  In a finite
    group a closed nonempty subset is a subgroup, so this is EE = E, read off
    the table and left at the first product outside the mask."""
    for a in iter_bits(mask):
        row = t[a]
        for b in iter_bits(mask):
            if not mask >> row[b] & 1:
                return False
    return True


def all_idempotents(g: FiniteGroup) -> list[int]:
    """The masks of all nonempty E with EE = E, scanning every mask in
    ascending order.

    In a finite group these are exactly the subgroup masks (a nonempty finite
    product-closed subset contains inverses), which tests assert.
    """
    n = g.order
    check_cap(n, SEARCH_CAP, "2^n idempotent scan at order")
    t = g.table
    return [m for m in range(1, 1 << n) if _closed(t, m)]


@dataclass(frozen=True)
class LocalMonoid:
    """All subsets A with EA = AE = A, for one idempotent mask E, as masks in
    ascending order."""

    idempotent: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def local_monoid(g: FiniteGroup, emask: int) -> LocalMonoid:
    """Scan all nonempty masks for EA = AE = A.  Requires a mask _check_mask
    accepts with EE = E, so E is a subgroup and EA = AE = A exactly when Ex and
    xE lie in A for each x in A: Ex | xE is formed once per x, and a mask is
    left at its first x that fails."""
    n = g.order
    check_cap(n, SEARCH_CAP, "2^n local monoid scan at order")
    _check_mask(g, emask)
    t = g.table
    if not _closed(t, emask):
        raise NotIdempotentError(f"EE != E for mask {emask:#x}")
    translates = [0] * n
    for x in range(n):
        for y in iter_bits(emask):
            translates[x] |= 1 << t[y][x] | 1 << t[x][y]
    members = tuple(m for m in range(1, 1 << n) if not any(translates[x] & ~m for x in iter_bits(m)))
    return LocalMonoid(idempotent=emask, members=members)


def unit_group(g: FiniteGroup, emask: int) -> PowerGroupFamily:
    """The invertible elements of the local monoid at E, as a family.

    A unit A has some B in the monoid with AB = BA = E.  Since |XY| >= |X| and
    |XY| >= |Y|, every unit (and every usable B) has exactly |E| elements, so
    the pairwise inverse search only scans monoid members of that size.
    """
    monoid = local_monoid(g, emask)
    target = emask.bit_count()
    pm = g.product_mask
    candidates = [a for a in monoid.members if a.bit_count() == target]
    units = [a for a in candidates if any(pm(a, b) == emask == pm(b, a) for b in candidates)]
    return power_group_family(g, units)


def _families_at_idempotent(g: FiniteGroup, emask: int) -> list[tuple[int, ...]]:
    """All subset families with identity E that form groups, as mask tuples."""
    u = unit_group(g, emask)
    unit_masks = u.elements
    return [
        tuple(sorted(unit_masks[i] for i in iter_bits(sub)))
        for sub in _subgroups(u.abstract_table, u.identity_index)
    ]


def _subgroups(table: Sequence[Sequence[int]], identity: int) -> set[int]:
    """Every subgroup mask of a group table: from the trivial subgroup, each
    one found with generators S grows by each x outside it to closure_mask(S
    + x), the subgroup S and x generate, which reaches every subgroup."""
    trivial = 1 << identity
    found = {trivial}
    stack = [(trivial, 0)]
    while stack:
        h, gens = stack.pop()
        for x in range(len(table)):
            if not h >> x & 1:
                k = closure_mask(table, gens | 1 << x)
                if k not in found:
                    found.add(k)
                    stack.append((k, gens | 1 << x))
    return found


def all_power_groups(g: FiniteGroup) -> list[PowerGroupFamily]:
    """Every family of nonempty subsets of g forming a group under the subset product.

    A test oracle: the census itself comes from the subgroup lattice
    (classify.lattice_power_groups).  Strategy: for each idempotent E
    (all_idempotents, which refuses orders above SEARCH_CAP), every
    such family with identity E is a subgroup of the unit group at E (its
    members are invertible monoid elements), so enumerating subgroups of each
    unit group is complete.  Families from different idempotents never
    coincide (one idempotent per family), but the results are still
    deduplicated by canonical key and sorted deterministically.
    """
    family_keys = {key for e in all_idempotents(g) for key in _families_at_idempotent(g, e)}
    ordered = sorted(family_keys, key=lambda ms: (len(ms), ms))
    return [power_group_family(g, ms) for ms in ordered]


def brute_force_power_groups(g: FiniteGroup) -> list[PowerGroupFamily]:
    """Independent oracle: try every family of nonempty subsets (orders <= 4).

    Iterates all 2^(2^n - 1) - 1 candidate families, keeps the ones closed
    under the subset product whose induced table passes the group validator.
    No reliance on idempotents, monoids, or unit groups.
    """
    n = g.order
    check_cap(n, BRUTE_FORCE_CAP, "2^(2^n-1) brute force scan at order")
    m = (1 << n) - 1
    masks = list(range(1, 1 << n))
    pm = g.product_mask
    prod_pos = [[pm(a, b) - 1 for b in masks] for a in masks]

    results = []
    for fam in range(1, 1 << m):
        idxs = list(iter_bits(fam))
        closed = True
        for i in idxs:
            row = prod_pos[i]
            for j in idxs:
                if not fam >> row[j] & 1:
                    closed = False
                    break
            if not closed:
                break
        if not closed:
            continue
        pos = {x: t for t, x in enumerate(idxs)}
        table = [[pos[prod_pos[i][j]] for j in idxs] for i in idxs]
        try:
            validate_cayley(table)
        except CayleyTableError:
            continue
        results.append(tuple(masks[i] for i in idxs))
    results.sort(key=lambda ms: (len(ms), ms))
    return [power_group_family(g, ms) for ms in results]
