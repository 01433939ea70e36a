"""Nonempty subsets of a finite group under the induced product {ab | a in A, b in B}."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ParentMismatchError, check_cap
from .groups import SEARCH_CAP, FiniteGroup, _mask_of, is_subgroup_mask, iter_bits

__all__ = [
    "GroupSubset",
    "all_idempotents",
    "inverse_set",
    "is_idempotent",
    "subset",
    "subset_product",
]


@dataclass(frozen=True)
class GroupSubset:
    """Nonempty subset of ``parent`` stored as an element bitmask."""

    parent: FiniteGroup
    members: int

    def __post_init__(self) -> None:
        if self.members <= 0 or self.members > self.parent.full_mask:
            raise ValueError(f"mask {self.members:#x} is empty or out of range")

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.members))

    def __contains__(self, i: int) -> bool:
        return bool(self.members >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.members)

    def __repr__(self) -> str:
        return f"GroupSubset({self.parent.name}, {{{','.join(map(str, self.elements()))}}})"


def subset(g: FiniteGroup, members: Iterable[int] | int) -> GroupSubset:
    """Build a GroupSubset from a mask or an iterable of element indices."""
    return GroupSubset(g, members if isinstance(members, int) else _mask_of(members))


def _same_parent(a: GroupSubset, b: GroupSubset) -> FiniteGroup:
    if a.parent is not b.parent and a.parent != b.parent:
        raise ParentMismatchError("subsets belong to different parent groups")
    return a.parent


def subset_product(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """{x*y | x in A, y in B}, the union over y in B of the right translate A*y."""
    g = _same_parent(a, b)
    return GroupSubset(g, g.product_mask(a.members, b.members))


def inverse_set(a: GroupSubset) -> GroupSubset:
    """{x^-1 | x in A}."""
    return GroupSubset(a.parent, a.parent.inverse_mask(a.members))


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


def _idempotents_are_subgroups(g: FiniteGroup) -> bool:
    # Cross-check helper for the tests.
    return all(is_subgroup_mask(g, e.members) for e in all_idempotents(g))
