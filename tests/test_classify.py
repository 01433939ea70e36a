"""Coset realizations of subset families and the equivalent finite-carrier checks."""

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powergroups.classify import (
    CosetGroupDescriptor,
    NotCosetGroup,
    NotSubquotient,
    SubquotientDescriptor,
    _coset_family,
    _coset_masks,
    _partition_union_check,
    _translates,
    build_coset_group,
    check_identity_subgroup,
    check_inverse_closure,
    check_partition_union_subgroup,
    coset_group_epimorphism_check,
    enumerate_subquotients,
    is_group_of_cosets,
    lattice_power_groups,
    match_subquotient,
)
from powergroups.errors import CommutationFailsError, NotIdempotentError
from powergroups.groups import (
    FiniteGroup,
    SubgroupMask,
    all_subgroups,
    catalog,
    group_from_name,
    iter_bits,
    normal_subgroups_of,
    subgroup_mask,
    validate_cayley,
)
from powergroups.search import PowerGroupFamily, all_power_groups, power_group_family
from powergroups.subsets import GroupSubset, subset
from powergroups.suites import THM2_GROUPS

S3 = catalog("symmetric", 3)
D4 = catalog("dihedral", 4)
C4 = catalog("cyclic", 4)
C6 = catalog("cyclic", 6)
V4 = catalog("klein4")


def fabricate(parent, masks, identity_index=0):
    # Bypasses power_group_family validation on purpose: the negative branches
    # of match_subquotient are unreachable from genuine finite families (every
    # finite family is a coset set), so exercising the reporting needs raw
    # instances.
    k = len(masks)
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return PowerGroupFamily(
        parent=parent,
        elements=tuple(GroupSubset(parent, m) for m in masks),
        identity_index=identity_index,
        inverse_map=tuple(range(k)),
        abstract_table=table,
        abstract=validate_cayley(table, name="F"),
    )


@pytest.mark.parametrize("g", [C4, V4, C6, S3, D4], ids=lambda g: g.name)
def test_subquotient_enumeration_round_trips(g):
    seen = set()
    for desc, fam in enumerate_subquotients(g):
        got = match_subquotient(fam)
        assert isinstance(got, SubquotientDescriptor)
        assert got.carrier.members == desc.carrier.members
        assert got.kernel.members == desc.kernel.members
        assert check_identity_subgroup(fam)
        assert check_inverse_closure(fam)
        assert check_partition_union_subgroup(fam)
        seen.add(fam.masks())
    # Distinct (H, N) pairs induce distinct families: H is the union and N the
    # identity, both recoverable from the family.
    assert len(seen) == len(enumerate_subquotients(g))
    assert seen == {f.masks() for f in all_power_groups(g)}


@pytest.mark.parametrize("name", ["D4", "S4"])
def test_coset_masks_multiplies_each_coset_once(name, monkeypatch):
    g = group_from_name(name)
    calls = []
    real = FiniteGroup.product_mask

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(FiniteGroup, "product_mask", counted)
    for h in all_subgroups(g):
        for n in normal_subgroups_of(g, h):
            calls.clear()
            cosets = _coset_masks(g, h.members, n.members)
            assert len(calls) == len(cosets) == h.size // n.size
            naive = {real(g, 1 << a, n.members) for a in iter_bits(h.members)}
            assert cosets == sorted(naive)


def _relabelled(g, seed):
    perm = list(range(g.order))
    Random(seed).shuffle(perm)
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return validate_cayley(table, name=f"{g.name}~{seed}")


COSET_CARRIERS = [group_from_name(name) for name in THM2_GROUPS + ("S4", "D6")]
COSET_CARRIERS.append(_relabelled(group_from_name("C2xC2xC2xC2"), 7))


def _outcome(build):
    # The family built, or "not closed" when the family is refused as not
    # closed under the subset product; any other refusal propagates.
    try:
        return build()
    except ValueError as exc:
        if str(exc).startswith("family not closed"):
            return "not closed"
        raise


@pytest.mark.parametrize("g", COSET_CARRIERS, ids=lambda g: g.name)
def test_coset_lookup_table_matches_subset_products(g):
    # Every N <= H, normal or not: the lookup table must equal the table
    # power_group_family multiplies out, and both must refuse the left cosets
    # of a non-normal N, which are not closed.
    built = 0
    subs = all_subgroups(g)
    for h in subs:
        for n in subs:
            if n.members & ~h.members:
                continue
            got = _outcome(lambda: _coset_family(g, _translates(g, h.members, n.members)))
            want = _outcome(lambda: power_group_family(g, _coset_masks(g, h.members, n.members)))
            assert got == want, (h, n)
            if got != "not closed":
                assert got.abstract_table == want.abstract_table
                assert got.abstract.table == want.abstract.table
                built += 1
    assert built == len(enumerate_subquotients(g))


@given(carrier=st.sampled_from(COSET_CARRIERS), seed=st.integers(0, 2**32 - 1))
def test_coset_lookup_matches_subset_products_under_relabelling(carrier, seed):
    # The table read from representatives must be the table power_group_family
    # multiplies out, under any labelling; the left cosets of a non-normal N
    # are not closed under the subset product, and both constructions refuse them.
    g = _relabelled(carrier, seed)
    subs = all_subgroups(g)
    for h in subs:
        for n in subs:
            if n.members & ~h.members:
                continue
            translate_of = _translates(g, h.members, n.members)
            got = _outcome(lambda: _coset_family(g, translate_of))
            want = _outcome(lambda: power_group_family(g, translate_of.values()))
            assert got == want
            if all(g.conjugate_mask(n.members, x) == n.members for x in iter_bits(h.members)):
                assert got.abstract_table == want.abstract_table
                assert got.abstract == validate_cayley(got.abstract_table, name="F")
            else:
                assert got == "not closed"


@pytest.mark.parametrize("name", ("D4", "Q8", "S4", "D6", "C2xC2xC2xC2"))
def test_census_families_hold_freshly_validated_groups(name):
    # Families with byte-equal tables share one validated group per carrier;
    # each must be the group a fresh validation of its own table gives.
    g = group_from_name(name)
    fams = lattice_power_groups(g, max_order=g.order)
    for f in fams:
        fresh = validate_cayley(f.abstract_table, name="F")
        assert f.abstract == fresh
        assert f.identity_index == next(
            i for i in range(f.order) if f.abstract_table[i][i] == i
        )
        assert all(
            f.abstract_table[i][f.inverse_map[i]] == f.identity_index for i in range(f.order)
        )
    assert len({f.abstract_table for f in fams}) < len(fams)
    assert len({id(f.abstract) for f in fams}) == len({f.abstract_table for f in fams})


def test_coset_lookup_rejects_corrupted_translate_maps():
    good = _translates(C4, C4.full_mask, 0b0101)  # x -> x + {0, 2}
    assert good == {0: 0b0101, 2: 0b0101, 1: 0b1010, 3: 0b1010}
    assert _coset_family(C4, good).masks() == (0b0101, 0b1010)
    dropped = {x: m for x, m in good.items() if x != 3}
    no_identity = {x: m for x, m in good.items() if x != 0}
    moved = dict(good)
    moved[1] = 0b0101  # 1 is not in the block it is sent to
    overlapping = dict(good)
    overlapping[1] = overlapping[3] = 0b1110
    # Every key sent to N: the lookup alone returns the one-member family {N}.
    collapsed = dict.fromkeys(good, 0b0101)
    # Blocks that hold their keys but whose identity block {0, 1} is not a
    # subgroup: the lookup alone gives a group table (Z2), though
    # {0, 1} + {0, 1} = {0, 1, 2} is not a member.
    repartitioned = {0: 0b0011, 1: 0b0011, 2: 0b1100, 3: 0b1100}
    unclosed = {0: 0b01, 1: 0b10}  # the carrier {0, 1} of C4 is not closed
    for bad in (dropped, no_identity, moved, overlapping, collapsed, repartitioned, unclosed):
        with pytest.raises(ValueError):
            _coset_family(C4, bad)
    # The right cosets Nx of the non-normal N = {0, 4} in D4: the lookup
    # alone gives a group table here too.
    n = 0b00010001
    right = {x: D4.product_mask(n, 1 << x) for x in range(8)}
    assert right[0] == n and len(set(right.values())) == 4
    with pytest.raises(ValueError):
        _coset_family(D4, right)


def test_coset_lookup_names_each_added_refusal():
    good = _translates(C4, C4.full_mask, 0b0101)
    dropped = {x: m for x, m in good.items() if x != 3}  # block {1, 3} covers 3
    with pytest.raises(ValueError, match="cover 0xf, not its keys 0x7"):
        _coset_family(C4, dropped)
    # The left cosets of the non-normal N = {0, 4} in D4 are genuine, but not
    # right cosets, so not closed under the subset product.
    left = _translates(D4, D4.full_mask, 0b00010001)
    with pytest.raises(ValueError, match="^family not closed: 0x11 is not normal"):
        _coset_family(D4, left)
    with pytest.raises(ValueError, match="^family not closed"):
        power_group_family(D4, left.values())


def test_partition_union_check_negatives():
    assert not _partition_union_check(C4, [0b0011, 0b0110])  # overlap at element 1
    assert not _partition_union_check(C4, [0b0001, 0b0010])  # union {0,1} not a subgroup
    assert _partition_union_check(C4, [0b0101, 0b1010])


def test_match_subquotient_failure_conditions():
    t2 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    c2 = (1 << 0) | (1 << t2)
    full = S3.full_mask
    a3 = 0
    for a in S3.elements():
        if S3.element_order(a) != 2:
            a3 |= 1 << a

    bad_identity = fabricate(C4, [0b0011])
    got = match_subquotient(bad_identity)
    assert isinstance(got, NotSubquotient) and got.condition == "identity_not_subgroup"

    bad_union = fabricate(C4, [0b0001, 0b0010])
    got = match_subquotient(bad_union)
    assert isinstance(got, NotSubquotient) and got.condition == "union_not_subgroup"

    not_normal = fabricate(S3, [c2, full ^ c2])
    got = match_subquotient(not_normal)
    assert isinstance(got, NotSubquotient) and got.condition == "identity_not_normal_in_union"

    not_cosets = fabricate(S3, [a3, full])
    got = match_subquotient(not_cosets)
    assert isinstance(got, NotSubquotient) and got.condition == "family_not_coset_set"


@pytest.mark.parametrize("name", THM2_GROUPS + ("S4", "D6"))
def test_match_subquotient_normality_matches_conjugation_by_every_element(name):
    # Every N <= H, normal or not, as the family of left cosets of N in H: the
    # verdict must be the one conjugation by every element of H gives.
    g = group_from_name(name)
    subs = all_subgroups(g)
    for h in subs:
        for n in subs:
            if n.members & ~h.members:
                continue
            masks = _coset_masks(g, h.members, n.members)
            got = match_subquotient(fabricate(g, masks, masks.index(n.members)))
            normal = all(
                g.conjugate_mask(n.members, x) == n.members for x in iter_bits(h.members)
            )
            if normal:
                assert isinstance(got, SubquotientDescriptor)
                assert (got.carrier, got.kernel) == (h, n)
            else:
                assert got.condition == "identity_not_normal_in_union"


def test_subgroups_are_validated_once(monkeypatch):
    import powergroups.classify as classify_module
    import powergroups.groups as groups_module

    inits, checks = [], []
    real_init = SubgroupMask.__post_init__
    real_check = groups_module.is_subgroup_mask

    def counting_init(self):
        inits.append(self.members)
        real_init(self)

    def counting_check(g, mask):
        checks.append(mask)
        return real_check(g, mask)

    monkeypatch.setattr(SubgroupMask, "__post_init__", counting_init)
    g = group_from_name("S4")
    pairs = enumerate_subquotients(g)
    subs = all_subgroups(g)
    assert len(subs) == 30
    assert sorted(inits) == sorted(h.members for h in subs)
    assert all(a is b for a, b in zip(all_subgroups(g), subs))
    handed_out = {id(h) for h in subs}
    assert all({id(d.carrier), id(d.kernel)} <= handed_out for d, _ in pairs)
    # match_subquotient validates N and H once each.
    monkeypatch.setattr(groups_module, "is_subgroup_mask", counting_check)
    monkeypatch.setattr(classify_module, "is_subgroup_mask", counting_check)
    fam = pairs[-1][1]
    assert isinstance(match_subquotient(fam), SubquotientDescriptor)
    assert sorted(checks) == sorted([fam.identity.members, pairs[-1][0].carrier.members])


def test_build_coset_group_over_klein4():
    e = subset(V4, [0, 1])
    h = subgroup_mask(V4, V4.full_mask)
    d = build_coset_group(V4, e, h)
    assert d.family.order == 2
    assert set(d.family.masks()) == {0b0011, 0b1100}
    rep = coset_group_epimorphism_check(d)
    assert rep.ok
    assert rep.kernel.members == 0b0011
    assert rep.quotient_order == 2
    assert rep.homomorphism_ok and rep.surjective and rep.kernel_normal_in_carrier


def test_build_coset_group_preconditions():
    with pytest.raises(NotIdempotentError):
        build_coset_group(C4, subset(C4, [0, 1]), subgroup_mask(C4, C4.full_mask))
    t2 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    e = subset(S3, [0, t2])
    with pytest.raises(CommutationFailsError) as info:
        build_coset_group(S3, e, subgroup_mask(S3, S3.full_mask))
    a = info.value.witness
    assert S3.product_mask(1 << a, e.members) != S3.product_mask(e.members, 1 << a)


def test_build_coset_group_degenerate_cases():
    # H restricted to the idempotent's own elements: one coset, trivial family.
    t2 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    e = subset(S3, [0, t2])
    d = build_coset_group(S3, e, subgroup_mask(S3, e.members))
    assert d.family.order == 1 and d.family.identity.members == e.members
    # E = whole group: every translate collapses onto E.
    d = build_coset_group(V4, subset(V4, V4.full_mask), subgroup_mask(V4, V4.full_mask))
    assert d.family.order == 1
    rep = coset_group_epimorphism_check(d)
    assert rep.ok and rep.kernel.size == 4 and rep.quotient_order == 1


@pytest.mark.parametrize("g", [C6, S3], ids=lambda g: g.name)
def test_epimorphism_holds_for_every_commuting_pair(g):
    pm = g.product_mask
    built = 0
    for h in all_subgroups(g):
        for e in all_subgroups(g):
            ge = GroupSubset(g, e.members)
            if any(
                pm(1 << a, e.members) != pm(e.members, 1 << a) for a in h.elements()
            ):
                continue
            rep = coset_group_epimorphism_check(build_coset_group(g, ge, h))
            assert rep.ok
            built += 1
    assert built > 0


@pytest.mark.parametrize("g", [V4, S3], ids=lambda g: g.name)
def test_every_finite_family_is_a_group_of_cosets(g):
    for fam in all_power_groups(g):
        d = is_group_of_cosets(g, fam)
        assert isinstance(d, CosetGroupDescriptor)
        assert d.idempotent.members == fam.identity.members
        assert d.family.masks() == fam.masks()


def test_is_group_of_cosets_reports_failure_on_fabricated_family():
    t2 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    c2 = (1 << 0) | (1 << t2)
    fake = fabricate(S3, [c2, S3.full_mask])
    got = is_group_of_cosets(S3, fake)
    assert isinstance(got, NotCosetGroup)
