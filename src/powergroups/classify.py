"""Classification of subset-group families: coset structure and equivalent criteria.

For a family F with identity E over a finite group, the following are checked
independently of each other: E is a subgroup; inverses of members' elements
land in the family inverse; the family partitions its union and that union is
a subgroup; and F is exactly the coset family of N = E inside H = union(F).
For finite carriers all of these agree.  The checks stay separate because
that agreement is what the ``thm1-equivalence`` suite and the census record
flags assert: each flag is its own computation, so a fault in one check shows
up as a disagreement instead of being copied into every flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence, Union

from .errors import (
    CommutationFailsError,
    HomomorphismFailsError,
    InternalFaultError,
    NotIdempotentError,
    check_cap,
)
from .groups import (
    SEARCH_CAP,
    FiniteGroup,
    PowerGroupFamily,
    _check_mask,
    _check_subgroup,
    _family_from_table,
    is_idempotent,
    is_subgroup_mask,
    normal_subgroups_of,
    power_group_family,
)

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
    """A family realized as the cosets of the subgroup mask ``kernel`` inside
    the subgroup mask ``carrier``."""

    carrier: int
    kernel: int


@dataclass(frozen=True)
class NotSubquotient:
    """Value describing the first coset-realization condition that failed."""

    condition: str
    detail: str


@dataclass(frozen=True)
class CosetGroupDescriptor:
    """A family obtained as {aE | a in H} for an idempotent E commuting with
    H, both masks over family.parent."""

    idempotent: int
    carrier: int
    family: PowerGroupFamily


@dataclass(frozen=True)
class NotCosetGroup:
    """Value: no subgroup H yields the family as {aE | a in H}."""

    detail: str


def check_identity_subgroup(f: PowerGroupFamily) -> bool:
    """Does the family identity E pass the subgroup invariants?"""
    return is_subgroup_mask(f.parent, f.identity)


def check_inverse_closure(f: PowerGroupFamily) -> bool:
    """For every member A and every x in A, is x^-1 in the family inverse of A?"""
    g, masks = f.parent, f.elements
    for a, j in zip(masks, f.inverse_map):
        if g.inverse_mask(a) & ~masks[j]:
            return False
    return True


def check_partition_union_subgroup(f: PowerGroupFamily) -> bool:
    """Are the members pairwise disjoint with a union that is a subgroup?"""
    return _partition_union_check(f.parent, f.elements)


def _partition_union_check(g: FiniteGroup, masks: Sequence[int]) -> bool:
    union = 0
    for m in masks:
        if union & m:
            return False
        union |= m
    return is_subgroup_mask(g, union)


def _coset_masks(g: FiniteGroup, hmask: int, nmask: int) -> list[int]:
    """Masks of the left cosets {aN | a in H}, sorted, for a subgroup N.

    Each coset is multiplied out once, at the least member of H it does not
    yet cover: b in aN gives bN = aN.  Taking that member out as well keeps
    the walk finite when N lacks the identity.
    """
    out = []
    rest = hmask
    while rest:
        low = rest & -rest
        coset = g.product_mask(low, nmask)
        out.append(coset)
        rest &= ~(coset | low)
    return sorted(out)


def _first_non_right_coset(g: FiniteGroup, nmask: int, cosets: Sequence[int]) -> int:
    """The first left coset xN of cosets that is not the right coset Nr at its
    least member r, or 0 if none is: for a subgroup N, 0 exactly when N is
    normal in the union of the cosets, which are then closed under the subset
    product."""
    t, ns = g.table, g.members_of(nmask)
    for m in cosets:
        r = (m & -m).bit_length() - 1
        right = 0
        for y in ns:
            right |= 1 << t[y][r]
        if right != m:
            return m
    return 0


def _kernel_cosets(g: FiniteGroup, mmask: int, nmask: int) -> list[int]:
    """The left cosets of N in M (_coset_masks), checked as blocks of M/N.

    Raises ValueError unless N is a subgroup and no left coset of N leaves M;
    then the cosets partition M.  Raises ValueError("family not closed: ...")
    unless every coset is a right coset (_first_non_right_coset), so N is
    normal in every subgroup that is a union of them.  M need not be closed.
    """
    if not is_subgroup_mask(g, nmask):
        raise ValueError(f"kernel {nmask:#x} is not a subgroup")
    masks = _coset_masks(g, mmask, nmask)
    for m in masks:
        if m & ~mmask:
            raise ValueError(f"coset {m:#x} of {nmask:#x} leaves {mmask:#x}")
    bad = _first_non_right_coset(g, nmask, masks)
    if bad:
        raise ValueError(
            f"family not closed: {nmask:#x} is not normal (block {bad:#x} is no right coset)"
        )
    return masks


def _coset_family(g: FiniteGroup, cosets: Sequence[int]) -> PowerGroupFamily:
    """The family M/N of the cosets of N in M that _kernel_cosets checked.

    They are right cosets, so (rN)(sN) = rsN: entry (i, j) of the table is
    the coset of r_i r_j, one lookup per entry instead of the |A||B| table
    reads of power_group_family.  Raises ValueError("family not closed:
    ...") unless every product of two representatives lies in M (then M is
    closed).  The table is validated by _family_from_table.
    """
    t = g.table
    reps = [(m & -m).bit_length() - 1 for m in cosets]
    block_of = {x: i for i, m in enumerate(cosets) for x in g.members_of(m)}
    table = []
    for r in reps:
        row = t[r]
        try:
            table.append(tuple([block_of[row[s]] for s in reps]))
        except KeyError as exc:
            raise ValueError(f"family not closed: {exc.args[0]} is outside the carrier") from None
    return _family_from_table(g, tuple(cosets), table)


def _blocks_inside(cosets: Sequence[int], nmask: int, hmask: int) -> tuple[int, ...]:
    """The ascending cosets of N in M that lie inside the mask H: the cosets
    of N in H.  Raises InternalFaultError unless they cover exactly H (N <=
    H <= M): a fault of the lattice, the normalizers or normal_subgroups_of."""
    blocks = tuple([a for a in cosets if not a & ~hmask])
    covered = sum(blocks)  # disjoint blocks: the sum is the union
    if covered != hmask:
        raise InternalFaultError(f"cosets of {nmask:#x} cover {covered:#x}, not {hmask:#x}")
    return blocks


def _restrict(q: PowerGroupFamily, hmask: int) -> PowerGroupFamily:
    """The subfamily of the coset family q = M/N made of its blocks inside a
    subgroup H with N <= H <= M: the family H/N.

    The blocks inside H must cover it (_blocks_inside).  Its table is q's
    table read at those blocks, renumbered; a product landing on a block
    outside H raises ValueError("family not closed: ...").  The table is
    validated by _family_from_table (once per distinct table).
    """
    blocks = _blocks_inside(q.elements, q.identity, hmask)
    if len(blocks) == q.order:
        return q
    inside = list(map(q.elements.index, blocks))
    pos = {i: k for k, i in enumerate(inside)}
    qt = q.abstract_table
    if len(inside) == 1:
        # itemgetter of one index returns the entry itself, not a 1-tuple.
        (i,) = inside
        rows = [(qt[i][i],)]
    else:
        pick = itemgetter(*inside)
        rows = map(pick, pick(qt))
    try:
        table = [tuple(map(pos.__getitem__, row)) for row in rows]
    except KeyError as exc:
        block = q.elements[exc.args[0]]
        raise ValueError(f"family not closed: block {block:#x} is outside {hmask:#x}") from None
    return _family_from_table(q.parent, blocks, table)


def match_subquotient(
    f: PowerGroupFamily,
) -> Union[SubquotientDescriptor, NotSubquotient]:
    """Try to realize the family as the full coset set of N = identity in H = union.

    Returns a descriptor on success, otherwise NotSubquotient naming the first
    failed condition: identity-subgroup, union-subgroup, normality, or the
    coset set differing from the family.  The left cosets of N in H are built
    once (_coset_masks) and serve both of the last two tests: normality
    (_first_non_right_coset, the test _kernel_cosets applies to its blocks)
    and the comparison.  Normality depends on H and N only, so it is decided
    before the cosets are compared with the family.
    """
    g = f.parent
    nmask = f.identity
    hmask = 0
    for a in f.elements:
        hmask |= a
    if not is_subgroup_mask(g, nmask):
        return NotSubquotient("identity_not_subgroup", f"identity mask {nmask:#x} is not a subgroup")
    if not is_subgroup_mask(g, hmask):
        return NotSubquotient("union_not_subgroup", f"union mask {hmask:#x} is not a subgroup")
    cosets = _coset_masks(g, hmask, nmask)
    if _first_non_right_coset(g, nmask, cosets):
        return NotSubquotient("identity_not_normal_in_union", f"{nmask:#x} not normal in {hmask:#x}")
    if cosets != sorted(f.elements):
        return NotSubquotient("family_not_coset_set", "family differs from the coset set of N in H")
    return SubquotientDescriptor(carrier=hmask, kernel=nmask)


def _subquotient_pairs(
    g: FiniteGroup, build: Callable[[FiniteGroup, list[int]], Any] | None = None
) -> Iterator[tuple[int, int, Any]]:
    """Each pair (H, N normal in H), H then N in lattice order, with the
    cosets of N in its normalizer M (g.normalizers), walked and checked once
    per kernel (_kernel_cosets), or with build(g, cosets), made once per
    kernel.  The kernels of H, normal_subgroups_of(g, H), have N <= H <= M,
    so N's cosets in H are checked right cosets: N is normal in H even if M
    is not closed.  A kernel that _kernel_cosets or build refuses raises
    InternalFaultError, as both masks come from the package."""
    per_kernel = {}
    for n, norm in zip(g.subgroup_masks, g.normalizers):
        try:
            cosets = _kernel_cosets(g, norm, n)
            per_kernel[n] = build(g, cosets) if build else cosets
        except ValueError as exc:
            raise InternalFaultError(f"normalizer {norm:#x} of {n:#x} gives no quotient: {exc}") from None
    for h in g.subgroup_masks:
        for n in normal_subgroups_of(g, h):
            yield h, n, per_kernel[n]


def enumerate_subquotients(g: FiniteGroup) -> list[tuple[SubquotientDescriptor, tuple[int, ...]]]:
    """All pairs (H, N normal in H) in the order of _subquotient_pairs, each
    with the cosets of N in H as ascending masks, read off N's checked cosets
    (_blocks_inside): no quotient table is built, per pair or per kernel."""
    return [
        (SubquotientDescriptor(carrier=h, kernel=n), _blocks_inside(cosets, n, h))
        for h, n, cosets in _subquotient_pairs(g)
    ]


def lattice_power_groups(g: FiniteGroup, *, max_order: int = SEARCH_CAP) -> list[PowerGroupFamily]:
    """Every subset family over g forming a group, sorted by (order, masks).

    Over a finite carrier each is the coset family H/N of one pair
    (_subquotient_pairs), read off its kernel's quotient M/N (_restrict),
    built once per kernel from the cosets already walked (_coset_family).
    This is the production census behind ``enum`` and ``underlies``; the
    oracle all_power_groups returns the same families in the same order.
    """
    check_cap(g.order, max_order, "census at order")
    fams = [_restrict(q, h) for h, _, q in _subquotient_pairs(g, _coset_family)]
    fams.sort(key=lambda f: (f.order, f.elements))
    return fams


def build_coset_group(g: FiniteGroup, emask: int, hmask: int) -> CosetGroupDescriptor:
    """Form {aE | a in H} for an idempotent E with aE = Ea for every a in H.

    Both masks are checked against g before any product: ValueError from
    _check_mask, then NotIdempotentError, then NotASubgroupError unless H is
    a subgroup (_check_subgroup).  CommutationFailsError when some aE != Ea;
    a product-law failure after that would be an internal bug and raises
    InternalFaultError.  An idempotent of a finite group is a
    subgroup, which _coset_masks relies on; E need not be a subset of H, and
    distinct a may give the same coset.  This is the one place aE is
    compared with Ea.  The product law (aE)(bE) = (ab)E is read on the
    family table, whose entry (i, j) power_group_family set to the position
    of the subset product of members i and j, so no product is formed twice.
    """
    _check_mask(g, hmask)
    if not is_idempotent(g, emask):
        raise NotIdempotentError(f"EE != E for mask {emask:#x}")
    _check_subgroup(g, hmask)
    blocks = _coset_masks(g, hmask, emask)
    # a -> position of aE; the family lists the blocks in the same sorted order.
    hs = g.members_of(hmask)
    at = {a: i for i, m in enumerate(blocks) for a in g.members_of(m & hmask)}
    for a in hs:
        if blocks[at[a]] != g.product_mask(emask, 1 << a):
            raise CommutationFailsError(f"aE != Ea for a = {a}", a)
    fam = power_group_family(g, blocks)
    # Product law: (aE)(bE) = (ab)E.  Guaranteed by commutation; verify anyway.
    for a in hs:
        row, ga = fam.abstract_table[at[a]], g.table[a]
        for b in hs:
            if row[at[b]] != at[ga[b]]:
                raise InternalFaultError(f"family table disagrees with (aE)(bE) at a={a}, b={b}")
    return CosetGroupDescriptor(idempotent=emask, carrier=hmask, family=fam)


@dataclass(frozen=True)
class EpimorphismReport:
    """Outcome of checking a -> aE as a surjective homomorphism with kernel K."""

    homomorphism_ok: bool
    surjective: bool
    kernel: int
    kernel_normal_in_carrier: bool
    quotient_order: int
    quotient_iso_pairs: tuple[tuple[int, int], ...]  # (coset-of-K mask, family index)
    ok: bool


def coset_group_epimorphism_check(d: CosetGroupDescriptor) -> EpimorphismReport:
    """Verify phi(a) = aE is an epimorphism H -> family and H/K matches the family.

    K = {a in H | aE = E}.  The induced map aK -> aE must be bijective; it
    is well defined once phi is a homomorphism and K a subgroup.  An aE that
    is no family member, a failure of the homomorphism law (a product ab
    outside H included), or a kernel that is not a subgroup would mean the
    descriptor was constructed inconsistently and raises
    HomomorphismFailsError.
    """
    g = d.family.parent
    emask = d.idempotent
    pos = {m: i for i, m in enumerate(d.family.elements)}
    helems = g.members_of(d.carrier)
    phi = {a: pos.get(g.product_mask(1 << a, emask)) for a in helems}
    if None in phi.values():
        raise HomomorphismFailsError("some aE is no member of the family")

    table = d.family.abstract_table
    hom_ok = all(phi.get(g.table[a][b]) == table[phi[a]][phi[b]] for a in helems for b in helems)
    if not hom_ok:
        raise HomomorphismFailsError("phi(ab) != phi(a)phi(b) on the carrier")
    surjective = set(phi.values()) == set(range(d.family.order))

    kmask = 0
    for a in helems:
        if phi[a] == d.family.identity_index:
            kmask |= 1 << a
    if not is_subgroup_mask(g, kmask):
        raise HomomorphismFailsError(f"kernel {kmask:#x} is not a subgroup")
    knormal = all(g.conjugate_mask(kmask, h) == kmask for h in helems)

    # Cosets of K in H pair off with family elements via aK -> aE, well
    # defined: for k in K, phi(ak) = phi(a)phi(k) = phi(a)phi(1) = phi(a).
    pairs = {g.product_mask(1 << a, kmask): phi[a] for a in helems}
    bijective = len(pairs) == d.family.order
    ok = hom_ok and surjective and knormal and bijective
    return EpimorphismReport(
        homomorphism_ok=hom_ok,
        surjective=surjective,
        kernel=kmask,
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
    {aE} is E itself).  Returns the first match in (size, mask) order of H,
    or NotCosetGroup as a value.  Raises ValueError unless f is over g.
    """
    if f.parent != g:
        raise ValueError(f"family over {f.parent.name} is not over {g.name}")
    e = f.identity
    want = sorted(f.elements)
    for h in g.subgroup_masks:
        if _coset_masks(g, h, e) == want:
            try:
                return build_coset_group(g, e, h)
            except CommutationFailsError:
                continue
    return NotCosetGroup("no subgroup H has {aE | a in H} equal to the family")
