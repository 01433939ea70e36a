"""Families of subsets that form a group under the subset product, and the
searches that find them without the subgroup lattice.

PowerGroupFamily is the census's family type; every builder packages one
through _family_from_table, which validates each distinct table once per
carrier.  The searches are the census's oracles: ``enum`` and ``underlies``
take their families from the subgroup lattice (classify.lattice_power_groups),
and the idempotent search (all_power_groups) and the exhaustive scan
(brute_force_power_groups) reach the same families without it.

The organizing fact: the identity of any such family is an idempotent subset E,
every member A satisfies EA = AE = A (so A lives in the local monoid at E), and
A has an inverse with respect to E (so A is a unit of that monoid).  The family
is therefore a subgroup of the unit group at E, and distinct idempotents give
disjoint collections because a group of subsets contains exactly one idempotent.
A doubly exponential brute-force enumerator over all families of nonempty
subsets (orders <= 4) serves as the independent oracle for all of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CayleyTableError, InternalFaultError, NotIdempotentError, check_cap
from .groups import (
    CONSTRUCTION_CAP,
    SEARCH_CAP,
    FiniteGroup,
    GroupSubset,
    _group_of_table,
    _identity_of,
    iter_bits,
    subgroup_lattice,
    validate_cayley,
)

__all__ = [
    "LocalMonoid",
    "PowerGroupFamily",
    "all_idempotents",
    "all_power_groups",
    "brute_force_power_groups",
    "is_idempotent",
    "local_monoid",
    "power_group_family",
    "unit_group",
]

BRUTE_FORCE_CAP = 4  # brute_force_power_groups scans 2^(2^n - 1) families


@dataclass(frozen=True)
class PowerGroupFamily:
    """A family of subsets closed under the subset product and forming a group.

    ``elements`` is sorted by ascending mask; ``abstract_table[i][j]`` is the
    position of elements[i] * elements[j] within the family, and passes the
    group-table validator.  ``abstract`` is the group that validation
    returned.  Construct via power_group_family(), or for the quotient M/N
    of a subgroup pair via classify._coset_family.
    """

    parent: FiniteGroup
    elements: tuple[GroupSubset, ...]
    identity_index: int
    inverse_map: tuple[int, ...]
    abstract_table: tuple[tuple[int, ...], ...]
    abstract: FiniteGroup = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        return tuple(a.members for a in self.elements)

    def masks(self) -> tuple[int, ...]:
        """The members' masks in family order, collected once per family."""
        return self._masks

    @property
    def identity(self) -> GroupSubset:
        return self.elements[self.identity_index]

    def abstract_group(self) -> FiniteGroup:
        """The family as an abstract group (relabeled so its identity is 0)."""
        return self.abstract

    def __repr__(self) -> str:
        return (
            f"<PowerGroupFamily over {self.parent.name}: order {self.order}, "
            f"identity {{{','.join(map(str, self.identity.elements()))}}}>"
        )


def power_group_family(parent: FiniteGroup, masks: Iterable[int]) -> PowerGroupFamily:
    """Validate that the given subset masks form a group and package them.

    Raises ValueError when the family is not closed, and the table validator's
    errors when the induced table is not a group table.
    """
    sorted_masks = sorted(set(masks))
    if not sorted_masks:
        raise ValueError("empty family")
    pos = {m: i for i, m in enumerate(sorted_masks)}
    pm = parent.product_mask
    table = []
    for a in sorted_masks:
        row = []
        for b in sorted_masks:
            p = pm(a, b)
            if p not in pos:
                raise ValueError(
                    f"family not closed: product of {a:#x} and {b:#x} is {p:#x}"
                )
            row.append(pos[p])
        table.append(tuple(row))
    return _family_from_table(
        parent, tuple(GroupSubset(parent, m) for m in sorted_masks), table
    )


def _family_from_table(
    parent: FiniteGroup,
    elements: tuple[GroupSubset, ...],
    table: Sequence[tuple[int, ...]],
) -> PowerGroupFamily:
    """Package subsets in ascending mask order with their product table.

    ``table[i][j]`` must be the position of elements[i] * elements[j]; the
    builders (power_group_family and the coset builders in classify)
    compute it from positions, so it needs the group axioms checked but no
    input sanitation, and this raises the axiom checker's errors when it is
    not a group table.  Each distinct table is checked once per parent: the
    result is kept in parent.family_tables.  The subsets are kept as given,
    so families built from one quotient share them.
    """
    table = tuple(table)
    known = parent.family_tables.get(table)
    if known is None:
        k = len(elements)
        # A group of subsets has disjoint members, so it has at most |G| <=
        # CONSTRUCTION_CAP of them; refuse a larger family like any table.
        check_cap(k, CONSTRUCTION_CAP, "group order")
        abstract = _group_of_table(table, name="F")
        # The axiom check may relabel; recover the identity's position in family order.
        identity_index = _identity_of(table)
        inverse_map = tuple(row.index(identity_index) for row in table)
        if abstract.order != k:
            raise InternalFaultError(f"family of {k} masks validated as order {abstract.order}")
        known = parent.family_tables[table] = (abstract, identity_index, inverse_map)
    abstract, identity_index, inverse_map = known
    return PowerGroupFamily(
        parent=parent,
        elements=elements,
        identity_index=identity_index,
        inverse_map=inverse_map,
        abstract_table=table,
        abstract=abstract,
    )


def is_idempotent(e: GroupSubset) -> bool:
    """True iff EE = E under the subset product."""
    return e.parent.product_mask(e.members, e.members) == e.members


def all_idempotents(g: FiniteGroup) -> list[GroupSubset]:
    """All nonempty E with EE = E, scanning every mask in ascending order.

    In a finite group these are exactly the subgroup masks (a nonempty finite
    product-closed subset contains inverses), which tests assert.
    """
    n = g.order
    check_cap(n, SEARCH_CAP, "2^n idempotent scan at order")
    pm = g.product_mask
    return [GroupSubset(g, m) for m in range(1, 1 << n) if pm(m, m) == m]


@dataclass(frozen=True)
class LocalMonoid:
    """All subsets A with EA = AE = A, for one idempotent E."""

    idempotent: GroupSubset
    members: tuple[GroupSubset, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def local_monoid(g: FiniteGroup, e: GroupSubset) -> LocalMonoid:
    """Scan all nonempty masks for EA = AE = A.  Requires EE = E."""
    n = g.order
    check_cap(n, SEARCH_CAP, "2^n local monoid scan at order")
    if not is_idempotent(e):
        raise NotIdempotentError(f"EE != E for mask {e.members:#x}")
    emask = e.members
    pm = g.product_mask
    members = tuple(
        GroupSubset(g, m)
        for m in range(1, 1 << n)
        if pm(emask, m) == m and pm(m, emask) == m
    )
    return LocalMonoid(idempotent=e, members=members)


def unit_group(g: FiniteGroup, e: GroupSubset) -> PowerGroupFamily:
    """The invertible elements of the local monoid at E, as a family.

    A unit A has some B in the monoid with AB = BA = E.  Since |XY| >= |X| and
    |XY| >= |Y|, every unit (and every usable B) has exactly |E| elements, so
    the pairwise inverse search only scans monoid members of that size.
    """
    monoid = local_monoid(g, e)
    emask = e.members
    target = emask.bit_count()
    pm = g.product_mask
    candidates = [a.members for a in monoid.members if a.members.bit_count() == target]
    units = [
        a
        for a in candidates
        if any(pm(a, b) == emask and pm(b, a) == emask for b in candidates)
    ]
    return power_group_family(g, units)


def _families_at_idempotent(g: FiniteGroup, e: GroupSubset) -> list[tuple[int, ...]]:
    """All subset families with identity E that form groups, as mask tuples."""
    u = unit_group(g, e)
    unit_masks = u.masks()
    out = []
    for sub in subgroup_lattice(u.abstract_table, u.identity_index):
        out.append(tuple(sorted(unit_masks[i] for i in iter_bits(sub))))
    return out


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
