"""Finite groups as validated Cayley tables with 0-based element indices.

A group of order n is a tuple-of-tuples table where entry (i, j) is the index
of the product of elements i and j.  Validation relabels so that the identity
is always index 0; every constructor in this module goes through validation,
so downstream code may rely on ``identity == 0`` and on immutability.
Subsets, subgroups among them, are int bitmasks over the element indices of
a group g.  Every public function that takes a subset also takes g and checks
the mask against g at entry: _check_mask for any subset, and is_subgroup_mask
(else NotASubgroupError) where a subgroup is needed.  A family of subsets
forming a group under the subset product is a PowerGroupFamily, the one type
that holds its carrier.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    InternalFaultError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotASubgroupError,
    NotClosedError,
    ParamOutOfRangeError,
    UnknownFamilyError,
    check_cap,
)

# Order caps, each checked with errors.check_cap before any work starts: group
# tables (built or validated) at CONSTRUCTION_CAP, and the 2^n subset scans of
# the test oracles in search at SEARCH_CAP.  SEARCH_CAP is also the
# default max_order of the census functions, the one cap a caller sets (the
# CLI passes --max-order).
SEARCH_CAP = 16
CONSTRUCTION_CAP = 64
MAX_SYMMETRIC_DEGREE = 4  # group names S1 .. S4
MAX_TABLE_BYTES = 1 << 20  # an order-64 table indented by 2 takes about 40 KB

__all__ = [
    "CONSTRUCTION_CAP",
    "SEARCH_CAP",
    "FiniteGroup",
    "PowerGroupFamily",
    "direct_product",
    "generating_set",
    "group_from_name",
    "is_idempotent",
    "is_subgroup_mask",
    "iter_bits",
    "load_table_file",
    "normal_subgroups_of",
    "power_group_family",
    "subset",
    "validate_cayley",
]


_Table = tuple[tuple[int, ...], ...]  # a Cayley table as validation returns it


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order.  A negative mask
    has infinitely many set bits and raises ValueError."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group; identity is element 0.

    Every cache below holds plain data: masks, element tuples, verdicts and
    validated family groups, none of which refers back to the group.  So a
    group and all it caches are freed by reference counting as soon as its
    last user lets go of it, without waiting for the cycle collector.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    name: str = "G"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[a][b] == t[b][a] for a in range(self.order) for b in range(a)
        )

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @cached_property
    def subgroup_masks(self) -> tuple[int, ...]:
        """Every subgroup mask, sorted by (size, mask); built once per group,
        and each mask checked by is_subgroup_mask, whose verdicts never rest
        on the lattice: a lattice mask that fails is an internal fault."""
        masks = tuple(subgroup_lattice(self.table, self.identity))
        for m in masks:
            if not is_subgroup_mask(self, m):
                raise InternalFaultError(f"lattice mask {m:#x} is not a subgroup of {self.name}")
        return masks

    @cached_property
    def normalizers(self) -> tuple[int, ...]:
        """The normalizer mask of each of self.subgroup_masks, in the same
        order.  N is normal in H exactly when N <= H <= normalizer(N)."""
        return tuple(_normalizer(self, n) for n in self.subgroup_masks)

    @cached_property
    def subgroup_verdicts(self) -> dict[int, bool]:
        """Mask -> verdict, filled by is_subgroup_mask alone, so that each
        mask is tested once per group."""
        return {}

    @cached_property
    def member_tuples(self) -> dict[int, tuple[int, ...]]:
        """Mask -> its members in ascending order, filled by members_of."""
        return {}

    @cached_property
    def family_tables(self) -> dict[_Table, tuple[FiniteGroup, int, tuple[int, ...], _Table]]:
        """Family table -> (validated abstract group, identity index, inverse
        map, the table), filled by _family_from_table so that each distinct
        table of a family over this group is validated and stored once."""
        return {}

    def members_of(self, mask: int) -> tuple[int, ...]:
        """The set bits of mask in ascending order, expanded once per group."""
        out = self.member_tuples.get(mask)
        if out is None:
            out = self.member_tuples[mask] = tuple(iter_bits(mask))
        return out

    def product_mask(self, amask: int, bmask: int) -> int:
        """Subset product {a*b} as a mask: OR of 1 << table[a][b] over a in A, b in B."""
        bs = self.members_of(bmask)
        out = 0
        for a in self.members_of(amask):
            row = self.table[a]
            for b in bs:
                out |= 1 << row[b]
        return out

    def inverse_mask(self, mask: int) -> int:
        out = 0
        for i in self.members_of(mask):
            out |= 1 << self.inverses[i]
        return out

    def conjugate_mask(self, mask: int, h: int) -> int:
        """Image of a subset mask under x -> h*x*h^-1."""
        hinv = self.inverses[h]
        out = 0
        for i in self.members_of(mask):
            out |= 1 << self.table[self.table[h][i]][hinv]
        return out

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} order={self.order}>"


def validate_cayley(table: Sequence[Sequence[int]], *, name: str = "G") -> FiniteGroup:
    """Check the group axioms on a raw table and return the validated group.

    The table must have at most CONSTRUCTION_CAP rows (else CapExceededError),
    be square with entries in range (NotClosedError), have a two-sided
    identity (NoIdentityError), be associative (NotAssociativeError with a
    witness triple), and every row must reach the identity (NoInverseError).
    If the identity is not element 0 the group is relabeled, preserving the
    relative order of the other elements.  This is _sanitize_table followed
    by _group_of_table.
    """
    return _group_of_table(_sanitize_table(table), name=name)


def _sanitize_table(table: Sequence[Sequence[int]]) -> _Table:
    """The input half of validate_cayley: the cap, the shape, and the entry
    types (int, not bool) and ranges, returning the table as a tuple of tuples."""
    n = len(table)
    if n == 0:
        raise NoIdentityError("empty table has no identity")
    check_cap(n, CONSTRUCTION_CAP, "group order")
    rows: list[tuple[int, ...]] = []
    for i, row in enumerate(table):
        try:
            row = tuple(row)
        except TypeError:
            raise NotClosedError(f"row {i} is not a sequence") from None
        if len(row) != n:
            raise NotClosedError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise NotClosedError(f"entry ({i},{j}) = {v!r} is not an element index")
        rows.append(row)
    return tuple(rows)


def _identity_of(t: _Table) -> int | None:
    """The two-sided identity of a square tuple-of-tuples table, or None:
    the e whose row is (0, 1, ..., n-1) and whose column reads the same."""
    rng = tuple(range(len(t)))
    for e, row in enumerate(t):
        if row == rng and tuple(map(itemgetter(e), t)) == rng:
            return e
    return None


def _group_of_table(t: _Table, *, name: str) -> FiniteGroup:
    """The axiom half of validate_cayley, for a square tuple-of-tuples table
    with entries in range(len(t)): identity, associativity, inverses, then
    the relabel that puts the identity at 0.

    Associativity is Light's test (Clifford & Preston, *The Algebraic Theory
    of Semigroups* I, 1961, 1.2): if (a*x)*c = a*(x*c) and (a*y)*c = a*(y*c)
    for all a, c, then the same holds for x*y, so the middle elements that
    pass form a submagma, and the identity passes.  Checking b over a greedy
    generating set (each b kept when the identity and closure_mask of the kept
    ones miss it) therefore gives the verdict of the full n^3 scan in n^2
    products per generator.  Each (a, b) compares whole rows: row a*b of the
    table against row a read at the entries of row b.
    """
    n = len(t)
    identity = _identity_of(t)
    if identity is None:
        raise NoIdentityError("no two-sided identity element")

    # Light's test (see the docstring): check the middle element b over a
    # generating set only.  A generator exists only for n >= 2, so each
    # itemgetter takes at least two indices and returns a tuple.
    for b in _greedy_generators(t, identity, (1 << n) - 1):
        a_bc = itemgetter(*t[b])
        for a, ta in enumerate(t):
            tab, tabc = t[ta[b]], a_bc(ta)
            if tab != tabc:
                c = next(c for c in range(n) if tab[c] != tabc[c])
                raise NotAssociativeError(
                    f"(a*b)*c != a*(b*c) at (a,b,c)=({a},{b},{c})",
                    (a, b, c),
                )
    for a, row in enumerate(t):
        if identity not in row:
            raise NoInverseError(f"row {a} never reaches the identity")

    if identity != 0:
        # Relabel so the identity becomes 0; other elements keep relative order.
        old = (identity, *range(identity), *range(identity + 1, n))
        new_of_old = [0] * n
        for k, o in enumerate(old):
            new_of_old[o] = k
        pick, relabel = itemgetter(*old), new_of_old.__getitem__
        t = tuple(tuple(map(relabel, pick(t[o]))) for o in old)
        identity = 0

    inverses = tuple(row.index(identity) for row in t)
    return FiniteGroup(order=n, table=t, identity=identity, inverses=inverses, name=name)


def _is_mask(g: FiniteGroup, mask: object) -> bool:
    """Is mask an int (not a bool) naming a nonempty subset of g?"""
    return isinstance(mask, int) and not isinstance(mask, bool) and 0 < mask <= g.full_mask


def _check_mask(g: FiniteGroup, mask: object) -> None:
    """Raise ValueError unless mask is an int (not a bool) naming a nonempty
    subset of g."""
    if not _is_mask(g, mask):
        raise ValueError(f"mask {mask!r} is not a nonempty subset of {g.name}")


def _check_subgroup(g: FiniteGroup, mask: object) -> None:
    """Raise ValueError as _check_mask does, and NotASubgroupError unless
    mask is a subgroup of g."""
    _check_mask(g, mask)
    if not is_subgroup_mask(g, mask):
        raise NotASubgroupError(f"mask {mask:#x} is not a subgroup of {g.name}")


def is_subgroup_mask(g: FiniteGroup, mask: object) -> bool:
    """True iff mask is an int (not a bool) naming a nonempty subset of g
    that contains the identity and is closed.

    Each such mask is decided once per group (_grows_to) and its verdict
    kept in g.subgroup_verdicts, which nothing else writes: the verdict never
    rests on the lattice or the normalizers it is meant to check.
    """
    if not _is_mask(g, mask) or not mask >> g.identity & 1:
        return False
    verdicts = g.subgroup_verdicts
    verdict = verdicts.get(mask)
    if verdict is None:
        verdict = verdicts[mask] = _grows_to(g, mask)
    return verdict


def _grows_to(g: FiniteGroup, mask: int) -> bool:
    """Is the in-range mask, which holds the identity, a subgroup?

    <S> for the members S of mask is grown from the identity one right coset
    at a time (_coset_grow), adding the least member it misses until it
    covers mask; a product outside mask refuses at once.  A nonempty closed
    subset of a finite group is a subgroup, so reaching mask accepts.  This
    costs |<S>| table reads plus a few per coset, not |S|^2, and it needs
    associativity, which every FiniteGroup has (_group_of_table builds them).
    """
    t = g.table
    h = 1 << g.identity
    gens: list[int] = []
    while h != mask:
        rest = mask & ~h
        x = (rest & -rest).bit_length() - 1
        h = _coset_grow(t, h, g.members_of(h), gens, x, mask)
        if not h:
            return False
        gens.append(x)
    return True


def subset(g: FiniteGroup, members: Iterable[int] | int) -> int:
    """The mask of a nonempty subset of g, given as a mask or as an iterable
    of element indices, each an int (not a bool) in range(g.order).  Raises
    ValueError naming the offending value."""
    mask = members
    if not isinstance(members, int):
        try:
            indices = iter(members)
        except TypeError:
            raise ValueError(f"{members!r} is neither a mask nor an iterable of element indices") from None
        mask = 0
        for i in indices:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < g.order:
                raise ValueError(f"{i!r} is not an element index of {g.name}")
            mask |= 1 << i
    _check_mask(g, mask)
    return mask


@dataclass(frozen=True)
class PowerGroupFamily:
    """A family of subsets closed under the subset product and forming a group.

    ``elements`` holds the member masks in ascending order;
    ``abstract_table[i][j]`` is the position of elements[i] * elements[j]
    within the family, and passes the group-table validator.  ``abstract``
    is the group that validation returned, relabeled so its identity is 0.
    Construct via power_group_family(), or for a quotient M/N from its
    checked cosets via classify._coset_family.
    """

    parent: FiniteGroup
    elements: tuple[int, ...]
    identity_index: int
    inverse_map: tuple[int, ...]
    abstract_table: tuple[tuple[int, ...], ...]
    abstract: FiniteGroup = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        """The identity member's mask."""
        return self.elements[self.identity_index]

    def __repr__(self) -> str:
        return (
            f"<PowerGroupFamily over {self.parent.name}: order {self.order}, "
            f"identity {{{','.join(map(str, self.parent.members_of(self.identity)))}}}>"
        )


def power_group_family(parent: FiniteGroup, masks: Iterable[int]) -> PowerGroupFamily:
    """Validate that the given subset masks form a group and package them.

    Raises ValueError for a mask that _check_mask refuses, checked before any
    product, and when the family is empty or not closed; the table
    validator's errors when the induced table is not a group table.
    """
    masks = tuple(masks)
    for m in masks:
        _check_mask(parent, m)
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
                raise ValueError(f"family not closed: product of {a:#x} and {b:#x} is {p:#x}")
            row.append(pos[p])
        table.append(tuple(row))
    return _family_from_table(parent, tuple(sorted_masks), table)


def _family_from_table(
    parent: FiniteGroup,
    elements: tuple[int, ...],
    table: Sequence[tuple[int, ...]],
) -> PowerGroupFamily:
    """Package subset masks in ascending order with their product table.

    ``table[i][j]`` must be the position of elements[i] * elements[j]; the
    builders (power_group_family and the coset builders in classify)
    compute it from positions, so it needs the group axioms checked but no
    input sanitation, and this raises the axiom checker's errors when it is
    not a group table.  Each distinct table is checked once per parent and
    kept in parent.family_tables, whose copy every family with it shares.
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
        known = parent.family_tables[table] = (abstract, identity_index, inverse_map, table)
    abstract, identity_index, inverse_map, table = known
    return PowerGroupFamily(
        parent=parent,
        elements=elements,
        identity_index=identity_index,
        inverse_map=inverse_map,
        abstract_table=table,
        abstract=abstract,
    )


def is_idempotent(g: FiniteGroup, emask: int) -> bool:
    """True iff EE = E under the subset product, for a mask _check_mask accepts."""
    _check_mask(g, emask)
    return g.product_mask(emask, emask) == emask


def closure_mask(table: Sequence[Sequence[int]], seed: int) -> int:
    """Smallest superset of seed closed under right multiplication by seed elements.

    Each new member is right-multiplied by the seed elements once.  On any
    table the result is inside the submagma the seed generates (every member
    is a product of seed elements) and is monotone in the seed, which is all
    validate_cayley needs of it.  On an associative table a product of seed
    elements is a shorter product times a seed element, so the result is the
    whole submagma: the subgroup the seed generates, for a nonempty seed in a
    finite group.
    """
    gens = tuple(iter_bits(seed))
    cur = seed
    stack = list(gens)
    while stack:
        row = table[stack.pop()]
        for s in gens:
            c = row[s]
            if not cur >> c & 1:
                cur |= 1 << c
                stack.append(c)
    return cur


def _coset_grow(
    table: Sequence[Sequence[int]],
    hmask: int,
    hs: Sequence[int],
    gens: Sequence[int],
    g: int,
    bound: int,
) -> int:
    """<H, g> for a subgroup mask H with members hs, generated by gens, and an
    element g outside it, on an associative table (Dimino's algorithm, as in
    G. Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559,
    1991); 0 as soon as a coset leaves the mask bound.

    <H, g> is a union of right cosets Hr.  Starting from r = g, each new
    representative r adds its coset Hr and its products r*s for s in gens and
    g; a product outside the cosets found so far is the next representative.
    Since (Hr)s = H(rs), the union is then closed under right multiplication
    by the generators, so it is the subgroup they generate: |<H, g>| table
    reads for the cosets plus |gens| + 1 per representative, where a closure
    reads |gens| + 1 per element.  Only for validated tables: without
    associativity (Hr)s = H(rs) fails, so validation closes with closure_mask.
    """
    gs = (*gens, g)
    outside = ~bound
    coset = 0
    for h in hs:
        coset |= 1 << table[h][g]
    if coset & outside:
        return 0
    k = hmask | coset
    reps = [g]
    for r in reps:
        row = table[r]
        for s in gs:
            x = row[s]
            if not k >> x & 1:
                coset = 0
                for h in hs:
                    coset |= 1 << table[h][x]
                if coset & outside:
                    return 0
                k |= coset
                reps.append(x)
    return k


def subgroup_lattice(table: Sequence[Sequence[int]], identity: int) -> list[int]:
    """All subgroup masks of a validated table, sorted by (size, mask), each
    grown once, by canonical augmentation (B. D. McKay, "Isomorph-free
    exhaustive generation", *J. Algorithms* 26, 1998).

    A subgroup's path is its greedy generators g1 < ... < gk
    (_greedy_generators), so its parent <g1, ..., g(k-1)> is unique.  H with
    path g1, ..., gk grows only by an x > gk that is the least member of its
    left coset xH, and <H, x> is grown by right cosets (_coset_grow) bounded
    to give up at any member below x outside H: exactly the growths whose
    path is H's path then x.  No 2^n scan and no set of found subgroups.
    """
    n = len(table)
    grown: list[tuple[int, tuple[int, ...]]] = [(1 << identity, ())]
    for h, gens in grown:
        hs = tuple(iter_bits(h))
        covered = h
        for x in range(gens[-1] + 1 if gens else 0, n):
            if covered >> x & 1:
                continue
            row = table[x]
            coset = 0
            for y in hs:
                coset |= 1 << row[y]
            covered |= coset
            if coset & ((1 << x) - 1):
                continue  # x is not the least member of xH
            k = _coset_grow(table, h, hs, gens, x, h | -1 << x)
            if k:
                grown.append((k, (*gens, x)))
    return sorted((k for k, _ in grown), key=lambda m: (m.bit_count(), m))


def _greedy_generators(table: Sequence[Sequence[int]], identity: int, mask: int) -> list[int]:
    """Ascending members of mask, each kept when the identity and the
    closure_mask of the kept ones miss it.  On a group table and a subgroup
    mask the kept members generate the subgroup."""
    gens: list[int] = []
    kept = 0
    span = 1 << identity
    for a in iter_bits(mask):
        if span == mask:
            break
        if not span >> a & 1:
            gens.append(a)
            kept |= 1 << a
            span |= closure_mask(table, kept)
    return gens


def generating_set(g: FiniteGroup, mask: int) -> list[int]:
    """Greedy generators of a subgroup mask: ascending members, each kept
    whenever it enlarges the subgroup the kept ones generate.  The mask is
    checked by _check_subgroup."""
    _check_subgroup(g, mask)
    return _greedy_generators(g.table, g.identity, mask)


def _normalized_by(g: FiniteGroup, nmask: int, gens: Iterable[int]) -> bool:
    """Does conjugation by every element of gens fix the subset nmask?

    The elements whose conjugation fixes N form a subgroup, so with gens a
    generating set of H this is "N is normal in H".
    """
    return all(g.conjugate_mask(nmask, x) == nmask for x in gens)


def _normalizer(g: FiniteGroup, nmask: int) -> int:
    """N_G(N) for a subgroup mask N, one left coset xN at a time.

    Each coset is met at its least member x not yet covered, and x takes one
    conjugation test, stopped at the first image outside N.  For n in N,
    xn normalizes N exactly when x does, so the whole coset joins the
    normalizer or none of it does.
    """
    t, ns = g.table, g.members_of(nmask)
    m = covered = nmask
    for x in range(g.order):
        if covered >> x & 1:
            continue
        row, xinv = t[x], g.inverses[x]
        coset = 0
        for y in ns:
            coset |= 1 << row[y]
        covered |= coset
        for y in ns:
            if not nmask >> t[row[y]][xinv] & 1:
                break
        else:
            m |= coset
    return m


def normal_subgroups_of(g: FiniteGroup, hmask: int) -> list[int]:
    """Subgroups N <= H with hNh^-1 = N for every h in H (normal in H, not in
    g): those with N <= H <= N_G(N), read from g.normalizers.  The mask of H
    is checked by _check_subgroup."""
    _check_subgroup(g, hmask)
    return [
        n
        for n, norm in zip(g.subgroup_masks, g.normalizers)
        if not n & ~hmask and not hmask & ~norm
    ]


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Componentwise product; pair (i1, i2) gets index i1 * g2.order + i2."""
    n1, n2 = g1.order, g2.order
    check_cap(n1 * n2, CONSTRUCTION_CAP, "product order")  # before building the table
    t1, t2 = g1.table, g2.table
    table = [
        [t1[i1][j1] * n2 + t2[i2][j2] for j1 in range(n1) for j2 in range(n2)]
        for i1 in range(n1)
        for i2 in range(n2)
    ]
    return validate_cayley(table, name=f"{g1.name}x{g2.name}")


# ---------------------------------------------------------------------------
# Named groups


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(n: int) -> list[list[int]]:
    # Element (flip f, rotation a) has index f*n + a; (f,a)(g,b) =
    # (f^g, a + b) when f = 0 and (f^g, a - b) when f = 1.
    def mul(i: int, j: int) -> int:
        f, a = divmod(i, n)
        g, b = divmod(j, n)
        rot = (a + b) % n if f == 0 else (a - b) % n
        return ((f ^ g) * n) + rot

    return [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]


def _symmetric_table(degree: int) -> list[list[int]]:
    # Permutations of range(degree) in lexicographic order; the identity is
    # first.  Product p*q acts by "apply q, then p": (p*q)(x) = p(q(x)).
    elems = list(permutations(range(degree)))
    index = {p: k for k, p in enumerate(elems)}
    out = []
    for p in elems:
        out.append([index[tuple(p[q[x]] for x in range(degree))] for q in elems])
    return out


def _quaternion8_table() -> list[list[int]]:
    # Index s*4 + letter with s = 0 for +, 1 for -; letters 1, i, j, k are
    # 0-3, so the letter of a product is la ^ lb.  The sign flips once per
    # negative factor and once more for ii, jj, kk, ji, kj and ik.
    def mul(a: int, b: int) -> int:
        sa, la = divmod(a, 4)
        sb, lb = divmod(b, 4)
        flip = la and lb and (la == lb or (lb - la) % 3 == 2)
        return (sa ^ sb ^ bool(flip)) * 4 + (la ^ lb)

    return [[mul(a, b) for b in range(8)] for a in range(8)]


_ATOM_RE = re.compile(r"^([CDS])(\d+)$", re.IGNORECASE)


def _group_atom(token: str) -> FiniteGroup:
    """One factor of a group name, built from its table: C<n>, D<n> of order
    2n, S<degree>, Q8, V4 (or klein4), or trivial.  The order is checked
    against CONSTRUCTION_CAP before the table is built."""
    t = token.strip()
    low = t.lower()
    if low in ("trivial", "1"):
        t = "C1"
    elif low in ("v4", "klein4"):
        return validate_cayley([[i ^ j for j in range(4)] for i in range(4)], name="V4")
    elif low == "q8":
        return validate_cayley(_quaternion8_table(), name="Q8")
    m = _ATOM_RE.match(t)
    if not m:
        raise UnknownFamilyError(f"unknown group name {token!r}")
    kind, n = m.group(1).upper(), int(m.group(2))
    if kind == "S":
        if not 1 <= n <= MAX_SYMMETRIC_DEGREE:
            raise ParamOutOfRangeError(
                f"group name {t!r}: symmetric degree must be in [1, {MAX_SYMMETRIC_DEGREE}]"
            )
        return validate_cayley(_symmetric_table(n), name=f"S{n}")
    if n < 1:
        family = "cyclic" if kind == "C" else "dihedral"
        raise ParamOutOfRangeError(f"group name {t!r}: {family} {kind}<n> needs n >= 1")
    check_cap(n if kind == "C" else 2 * n, CONSTRUCTION_CAP, "group order")
    table = _cyclic_table(n) if kind == "C" else _dihedral_table(n)
    return validate_cayley(table, name=f"{kind}{n}")


def group_from_name(name: str) -> FiniteGroup:
    """Parse names like C6, D4, S3, Q8, V4, trivial, and products like C2xC2xC2.
    A product with an empty or blank factor, such as C2xxC3 or C2xC3x, is
    refused."""
    tokens = name.replace("*", "x").split("x")
    if not any(t.strip() for t in tokens):
        raise UnknownFamilyError(f"empty group name {name!r}")
    if not all(t.strip() for t in tokens):
        raise UnknownFamilyError(f"empty factor in group name {name!r}")
    g = _group_atom(tokens[0])
    for t in tokens[1:]:
        g = direct_product(g, _group_atom(t))
    return g


def load_table_file(path: str) -> FiniteGroup:
    """Read a Cayley table from a JSON document with fields ``order`` and ``table``.

    ``table`` is row-major with 0-based indices.  The result is validated.
    A file over MAX_TABLE_BYTES is refused before it is parsed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        check_cap(size, MAX_TABLE_BYTES, "table file bytes")
        # The first read is sized from fstat; one byte more shows whether the
        # file holds more than fstat said (a pipe reports 0, a file may still
        # be growing), and only then is it read on, up to the cap.
        raw = fh.read(size + 1)
        if len(raw) > size:
            raw += fh.read(MAX_TABLE_BYTES + 1 - len(raw))
    check_cap(len(raw), MAX_TABLE_BYTES, "table file bytes")
    try:
        doc = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise NotClosedError("table file nests too deeply to be a table") from None
    if not isinstance(doc, dict) or "order" not in doc or "table" not in doc:
        raise NotClosedError("table file must be an object with fields 'order' and 'table'")
    order, table = doc["order"], doc["table"]
    if not isinstance(order, int) or isinstance(order, bool):
        raise NotClosedError(f"'order' must be an integer, got {order!r}")
    if not isinstance(table, list) or len(table) != order:
        raise NotClosedError(f"'table' must be a list of {order} rows")
    name = os.path.splitext(os.path.basename(path))[0]
    return validate_cayley(table, name=name)


def exponent(g: FiniteGroup) -> int:
    """Least common multiple of all element orders."""
    out = 1
    for a in g.elements():
        out = lcm(out, g.element_order(a))
    return out
