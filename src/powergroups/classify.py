"""Classification of subset-group families: coset structure and equivalent criteria.

For a family F with identity E over a finite group, the following are checked
independently of each other: E is a subgroup; inverses of members' elements
land in the family inverse; the family partitions its union and that union is
a subgroup; and F is exactly the coset family of N = E inside H = union(F).
For finite carriers all of these agree (which the test suite asserts); the
checks stay separate so that infinite-carrier analogues can report which
conditions break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import (
    CommutationFailsError,
    HomomorphismFailsError,
    InternalFaultError,
    NotASubgroupError,
    NotIdempotentError,
    check_cap,
)
from .groups import (
    SEARCH_CAP,
    FiniteGroup,
    SubgroupMask,
    _normalized_by,
    all_subgroups,
    generating_set,
    is_subgroup_mask,
    iter_bits,
    normal_subgroups_of,
)
from .subsets import GroupSubset, is_idempotent
from .search import PowerGroupFamily, _family_from_table, power_group_family

__all__ = [
    "CosetGroupDescriptor",
    "EpimorphismReport",
    "NotCosetGroup",
    "NotSubquotient",
    "SubquotientDescriptor",
    "build_coset_group",
    "check_identity_subgroup",
    "check_inverse_closure",
    "check_partition_union_subgroup",
    "coset_group_epimorphism_check",
    "enumerate_subquotients",
    "is_group_of_cosets",
    "lattice_power_groups",
    "match_subquotient",
]


@dataclass(frozen=True)
class SubquotientDescriptor:
    """A family realized as the cosets of ``kernel`` inside ``carrier``."""

    carrier: SubgroupMask
    kernel: SubgroupMask


@dataclass(frozen=True)
class NotSubquotient:
    """Value describing the first coset-realization condition that failed."""

    condition: str
    detail: str


@dataclass(frozen=True)
class CosetGroupDescriptor:
    """A family obtained as {aE | a in H} for an idempotent E commuting with H."""

    idempotent: GroupSubset
    carrier: SubgroupMask
    family: PowerGroupFamily


@dataclass(frozen=True)
class NotCosetGroup:
    """Value: no subgroup H yields the family as {aE | a in H}."""

    detail: str


def check_identity_subgroup(f: PowerGroupFamily) -> bool:
    """Does the family identity E pass the subgroup invariants?"""
    return is_subgroup_mask(f.parent, f.identity.members)


def check_inverse_closure(f: PowerGroupFamily) -> bool:
    """For every member A and every x in A, is x^-1 in the family inverse of A?"""
    g = f.parent
    for i, a in enumerate(f.elements):
        fam_inv = f.elements[f.inverse_map[i]].members
        if g.inverse_mask(a.members) & ~fam_inv:
            return False
    return True


def check_partition_union_subgroup(f: PowerGroupFamily) -> bool:
    """Are the members pairwise disjoint with a union that is a subgroup?"""
    return _partition_union_check(f.parent, f.masks())


def _partition_union_check(g: FiniteGroup, masks: Sequence[int]) -> bool:
    union = 0
    for m in masks:
        if union & m:
            return False
        union |= m
    return is_subgroup_mask(g, union)


def _translates(g: FiniteGroup, hmask: int, emask: int) -> dict[int, int]:
    """{a: aE for a in H}, for a subgroup E.  Since b in aE gives bE = aE,
    each coset is multiplied out once, at the least member of H it holds."""
    out: dict[int, int] = {}
    for a in iter_bits(hmask):
        if a not in out:
            coset = g.product_mask(1 << a, emask)
            for b in iter_bits(coset & hmask):
                out[b] = coset
    return out


def _coset_family(g: FiniteGroup, translate_of: dict[int, int]) -> PowerGroupFamily:
    """The family {xN | x in H} from the map {x: xN for x in H} of _translates.

    Raises ValueError unless N = translate_of[identity] is a subgroup, every
    key lies in the block it maps to, the blocks cover exactly the keys, and
    each block is rN for its least member r; then the blocks are the left
    cosets of N that partition the keys, and every key x maps to xN.  Raises
    ValueError("family not closed: ...") unless each block is also Nr (with
    the blocks left cosets, this is N normal in the union H; the left cosets
    of N are closed under the subset product exactly when N is normal) and
    every product of two representatives is a key (then H is closed).  With
    both, (rN)(sN) = rsN, so entry (i, j) of the table is the block of
    r_i r_j: one map read per entry instead of the |A||B| table reads of
    power_group_family.  The table is validated by _family_from_table.
    """
    t = g.table
    nmask = translate_of.get(g.identity, 0)
    if not is_subgroup_mask(g, nmask):
        raise ValueError(f"translate map's identity block {nmask:#x} is not a subgroup")
    keys = 0
    for x, m in translate_of.items():
        if not m >> x & 1:
            raise ValueError(f"translate map sends {x} to a block without it")
        keys |= 1 << x
    masks = sorted(set(translate_of.values()))
    union = 0
    for m in masks:
        union |= m
    if union != keys:
        raise ValueError(f"translate map's blocks cover {union:#x}, not its keys {keys:#x}")
    ns = tuple(iter_bits(nmask))
    reps = [(m & -m).bit_length() - 1 for m in masks]
    for m, r in zip(masks, reps):
        row = t[r]
        left = right = 0
        for y in ns:
            left |= 1 << row[y]
            right |= 1 << t[y][r]
        if left != m:
            raise ValueError(f"translate map block {m:#x} is not a left coset of {nmask:#x}")
        if right != m:
            raise ValueError(
                f"family not closed: {nmask:#x} is not normal (block {m:#x} is no right coset)"
            )
    pos = {m: i for i, m in enumerate(masks)}
    table = []
    for r in reps:
        row = t[r]
        try:
            table.append(tuple([pos[translate_of[row[s]]] for s in reps]))
        except KeyError as exc:
            raise ValueError(f"family not closed: {exc.args[0]} is outside the carrier") from None
    return _family_from_table(g, masks, table)


def _coset_masks(g: FiniteGroup, hmask: int, nmask: int) -> list[int]:
    """Masks of {aN | a in H}, deduplicated and sorted."""
    return sorted(set(_translates(g, hmask, nmask).values()))


def match_subquotient(
    f: PowerGroupFamily,
) -> Union[SubquotientDescriptor, NotSubquotient]:
    """Try to realize the family as the full coset set of N = identity in H = union.

    Returns a descriptor on success, otherwise NotSubquotient naming the first
    failed condition: identity-subgroup, union-subgroup, normality, or the
    coset set differing from the family.
    """
    g = f.parent
    nmask = f.identity.members
    hmask = 0
    for a in f.elements:
        hmask |= a.members
    try:
        kernel = SubgroupMask(g, nmask)
    except NotASubgroupError:
        return NotSubquotient("identity_not_subgroup", f"identity mask {nmask:#x} is not a subgroup")
    try:
        carrier = SubgroupMask(g, hmask)
    except NotASubgroupError:
        return NotSubquotient("union_not_subgroup", f"union mask {hmask:#x} is not a subgroup")
    if not _normalized_by(g, nmask, generating_set(g, hmask)):
        return NotSubquotient("identity_not_normal_in_union", f"{nmask:#x} not normal in {hmask:#x}")
    cosets = _coset_masks(g, hmask, nmask)
    if cosets != sorted(f.masks()):
        return NotSubquotient("family_not_coset_set", "family differs from the coset set of N in H")
    return SubquotientDescriptor(carrier=carrier, kernel=kernel)


def enumerate_subquotients(
    g: FiniteGroup,
) -> list[tuple[SubquotientDescriptor, PowerGroupFamily]]:
    """All pairs (H, N normal in H) with the coset family each pair induces.

    Over a finite carrier every subset family forming a group is one of these
    coset families, so this is the production census: ``enum`` and
    ``underlies`` list their families from here, through
    lattice_power_groups.  The idempotent search (all_power_groups) and the
    exhaustive scan are independent oracles for it, compared in the
    verification suites.
    """
    out = []
    for h in all_subgroups(g):
        for n in normal_subgroups_of(g, h):
            fam = _coset_family(g, _translates(g, h.members, n.members))
            out.append((SubquotientDescriptor(carrier=h, kernel=n), fam))
    return out


def lattice_power_groups(
    g: FiniteGroup, *, max_order: int = SEARCH_CAP
) -> list[PowerGroupFamily]:
    """Every subset family over g forming a group, sorted by (order, masks).

    One family per pair (H, N normal in H) from enumerate_subquotients; pairs
    give distinct families, since H is a family's union and N its identity.
    This is the order all_power_groups returns the same families in.
    """
    check_cap(g.order, max_order, "census at order")
    fams = [fam for _, fam in enumerate_subquotients(g)]
    fams.sort(key=lambda f: (f.order, f.masks()))
    return fams


def build_coset_group(
    g: FiniteGroup, e: GroupSubset, h: SubgroupMask
) -> CosetGroupDescriptor:
    """Form {aE | a in H} for an idempotent E with aE = Ea for every a in H.

    Raises NotIdempotentError or CommutationFailsError when the preconditions
    fail; a product-law failure after that would be an internal bug and
    raises InternalFaultError.  An idempotent of a finite group is a
    subgroup, which _translates relies on; E need not be a subset of H, and
    distinct a may give the same coset.  This is the one place aE is
    compared with Ea.
    """
    if not is_idempotent(e):
        raise NotIdempotentError(f"EE != E for mask {e.members:#x}")
    emask = e.members
    translate_of = _translates(g, h.members, emask)
    for a in iter_bits(h.members):
        if translate_of[a] != g.product_mask(emask, 1 << a):
            raise CommutationFailsError(f"aE != Ea for a = {a}", a)
    fam = power_group_family(g, translate_of.values())
    pos = {m: i for i, m in enumerate(fam.masks())}
    # Product law: (aE)(bE) = (ab)E.  Guaranteed by commutation; verify anyway.
    for a in iter_bits(h.members):
        for b in iter_bits(h.members):
            ab = g.table[a][b]
            got = g.product_mask(translate_of[a], translate_of[b])
            if got != translate_of[ab]:
                raise InternalFaultError(f"(aE)(bE) != (ab)E at a={a}, b={b}")
            if pos[got] != fam.abstract_table[pos[translate_of[a]]][pos[translate_of[b]]]:
                raise InternalFaultError(f"family table disagrees with (aE)(bE) at a={a}, b={b}")
    return CosetGroupDescriptor(idempotent=e, carrier=h, family=fam)


@dataclass(frozen=True)
class EpimorphismReport:
    """Outcome of checking a -> aE as a surjective homomorphism with kernel K."""

    homomorphism_ok: bool
    surjective: bool
    kernel: SubgroupMask
    kernel_normal_in_carrier: bool
    quotient_order: int
    quotient_iso_pairs: tuple[tuple[int, int], ...]  # (coset-of-K mask, family index)
    ok: bool


def coset_group_epimorphism_check(d: CosetGroupDescriptor) -> EpimorphismReport:
    """Verify phi(a) = aE is an epimorphism H -> family and H/K matches the family.

    K = {a in H | aE = E}.  The induced map aK -> aE must be a well-defined
    bijective homomorphism.  A failure of the homomorphism law would mean the
    descriptor was constructed inconsistently and raises HomomorphismFailsError.
    """
    g = d.family.parent
    emask = d.idempotent.members
    fam_masks = d.family.masks()
    pos = {m: i for i, m in enumerate(fam_masks)}
    helems = list(iter_bits(d.carrier.members))
    phi = {a: pos[g.product_mask(1 << a, emask)] for a in helems}

    table = d.family.abstract_table
    hom_ok = all(phi[g.table[a][b]] == table[phi[a]][phi[b]] for a in helems for b in helems)
    if not hom_ok:
        raise HomomorphismFailsError("phi(ab) != phi(a)phi(b) on the carrier")
    surjective = set(phi.values()) == set(range(d.family.order))

    kmask = 0
    for a in helems:
        if phi[a] == d.family.identity_index:
            kmask |= 1 << a
    kernel = SubgroupMask(g, kmask)
    knormal = all(g.conjugate_mask(kmask, h) == kmask for h in helems)

    # Cosets of K in H pair off with family elements via aK -> aE.
    pairs = {}
    for a in helems:
        ck = g.product_mask(1 << a, kmask)
        idx = phi[a]
        if pairs.setdefault(ck, idx) != idx:
            raise HomomorphismFailsError("aK -> aE is not well defined")
    bijective = len(pairs) == d.family.order
    ok = hom_ok and surjective and knormal and bijective
    return EpimorphismReport(
        homomorphism_ok=hom_ok,
        surjective=surjective,
        kernel=kernel,
        kernel_normal_in_carrier=knormal,
        quotient_order=len(pairs),
        quotient_iso_pairs=tuple(sorted(pairs.items())),
        ok=ok,
    )


def is_group_of_cosets(
    g: FiniteGroup, f: PowerGroupFamily
) -> Union[CosetGroupDescriptor, NotCosetGroup]:
    """Search all subgroups H for a coset-group presentation of the family.

    Uses E = the family's identity (the only possible choice: the identity of
    {aE} is E itself).  Returns the first match in (size, mask) order of H, or
    NotCosetGroup as a value.
    """
    e = f.identity
    want = sorted(f.masks())
    for h in all_subgroups(g):
        if _coset_masks(g, h.members, e.members) == want:
            try:
                return build_coset_group(g, e, h)
            except CommutationFailsError:
                continue
    return NotCosetGroup("no subgroup H has {aE | a in H} equal to the family")
