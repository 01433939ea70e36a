"""Coset realizations of subset families and the equivalent finite-carrier checks."""

import dataclasses
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
    _kernel_cosets,
    _partition_union_check,
    _restrict,
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
from powergroups.errors import CommutationFailsError, HomomorphismFailsError, NotIdempotentError
from powergroups.groups import (
    FiniteGroup,
    PowerGroupFamily,
    _normalized_by,
    generating_set,
    group_from_name,
    iter_bits,
    normal_subgroups_of,
    power_group_family,
    subset,
    validate_cayley,
)
from powergroups.records import build_census
from powergroups.search import all_power_groups
from powergroups.cli import CATALOG_NAMES
from powergroups.suites import THM2_GROUPS

S3 = group_from_name("S3")
D4 = group_from_name("D4")
C4 = group_from_name("C4")
C6 = group_from_name("C6")
V4 = group_from_name("klein4")


def fabricate(parent, masks, identity_index=0):
    # Bypasses power_group_family validation on purpose: the negative branches
    # of match_subquotient are unreachable from genuine finite families (every
    # finite family is a coset set), so exercising the reporting needs raw
    # instances.
    k = len(masks)
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return PowerGroupFamily(
        parent=parent,
        elements=tuple(masks),
        identity_index=identity_index,
        inverse_map=tuple(range(k)),
        abstract_table=table,
        abstract=validate_cayley(table, name="F"),
    )


@pytest.mark.parametrize("g", [C4, V4, C6, S3, D4], ids=lambda g: g.name)
def test_subquotient_enumeration_round_trips(g):
    seen = set()
    for desc, cosets in enumerate_subquotients(g):
        fam = power_group_family(g, cosets)
        assert fam.elements == cosets
        got = match_subquotient(fam)
        assert isinstance(got, SubquotientDescriptor)
        assert got.carrier == desc.carrier
        assert got.kernel == desc.kernel
        assert check_identity_subgroup(fam)
        assert check_inverse_closure(fam)
        assert check_partition_union_subgroup(fam)
        seen.add(fam.elements)
    # Distinct (H, N) pairs induce distinct families: H is the union and N the
    # identity, both recoverable from the family.
    assert len(seen) == len(enumerate_subquotients(g))
    assert seen == {f.elements for f in all_power_groups(g)}


@pytest.mark.parametrize("name", ["D4", "S4"])
def test_coset_masks_multiplies_each_coset_once(name, monkeypatch):
    g = group_from_name(name)
    calls = []
    real = FiniteGroup.product_mask

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(FiniteGroup, "product_mask", counted)
    for h in g.subgroup_masks:
        for n in normal_subgroups_of(g, h):
            calls.clear()
            cosets = _coset_masks(g, h, n)
            assert len(calls) == len(cosets) == h.bit_count() // n.bit_count()
            naive = {real(g, 1 << a, n) for a in iter_bits(h)}
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


def _quotient(g, mmask, nmask):
    # The quotient M/N in two steps: the kernel's coset check, then the table.
    return _coset_family(g, _kernel_cosets(g, mmask, nmask))


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
    subs = g.subgroup_masks
    for h in subs:
        for n in subs:
            if n & ~h:
                continue
            got = _outcome(lambda: _quotient(g, h, n))
            want = _outcome(lambda: power_group_family(g, _coset_masks(g, h, n)))
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
    subs = g.subgroup_masks
    for h in subs:
        for n in subs:
            if n & ~h:
                continue
            got = _outcome(lambda: _quotient(g, h, n))
            want = _outcome(lambda: power_group_family(g, _coset_masks(g, h, n)))
            assert got == want
            if all(g.conjugate_mask(n, x) == n for x in iter_bits(h)):
                assert got.abstract_table == want.abstract_table
                assert got.abstract == validate_cayley(got.abstract_table, name="F")
            else:
                assert got == "not closed"


def _per_pair_subquotients(g):
    # enumerate_subquotients as a loop over pairs, without normalizers: N is
    # normal in H when conjugation by H's generators fixes it, and every pair
    # gets its own validated coset family.
    out = []
    for h in g.subgroup_masks:
        gens = generating_set(g, h)
        for n in g.subgroup_masks:
            if n & ~h or not _normalized_by(g, n, gens):
                continue
            fam = _quotient(g, h, n)
            out.append((h, n, fam))
    return out


@given(carrier=st.sampled_from(COSET_CARRIERS), seed=st.integers(0, 2**32 - 1))
def test_kernel_first_enumeration_matches_per_pair_reference(carrier, seed):
    # Pair for pair, in the same order: the same carrier and kernel masks,
    # family masks, table and validated group.  The reference runs on a
    # fresh copy of the group, so it shares no cached lattice, normalizer or
    # validated table with the enumeration.
    g = _relabelled(carrier, seed)
    fresh = validate_cayley(g.table, name=g.name)
    want = _per_pair_subquotients(fresh)
    got = [(d.carrier, d.kernel, cosets) for d, cosets in enumerate_subquotients(g)]
    assert got == [(h, n, f.elements) for h, n, f in want]
    # The census reads the same families, with their tables, off the quotients.
    census = [(f.elements, f.abstract_table, f.abstract) for f in lattice_power_groups(g, max_order=g.order)]
    want.sort(key=lambda pair: (pair[2].order, pair[2].elements))
    assert census == [(f.elements, f.abstract_table, f.abstract) for _, _, f in want]


@pytest.mark.parametrize("name", ("S4", "D6", "Q8xC2", "C2xC2xC2xC2"))
def test_coset_family_runs_once_per_kernel(name, monkeypatch):
    # The census builds one validated quotient per kernel N, over its
    # normalizer, from the cosets it walked once; every H/N is made of the
    # quotient's blocks.  The listing builds no quotient at all.
    import powergroups.classify as classify_module

    g = _relabelled(group_from_name(name), 4)
    calls = []
    quotients = {}
    walks = []
    real, real_walk = classify_module._coset_family, classify_module._coset_masks

    def counting(parent, cosets):
        q = real(parent, cosets)
        calls.append((sum(cosets), q.identity))
        quotients[q.identity] = q
        return q

    def walking(parent, hmask, nmask):
        walks.append(nmask)
        return real_walk(parent, hmask, nmask)

    monkeypatch.setattr(classify_module, "_coset_family", counting)
    monkeypatch.setattr(classify_module, "_coset_masks", walking)
    pairs = enumerate_subquotients(g)
    assert calls == [] and walks == list(g.subgroup_masks)
    walks.clear()
    fams = lattice_power_groups(g, max_order=g.order)
    assert calls == list(zip(g.normalizers, g.subgroup_masks)) and len(fams) == len(pairs) > len(calls)
    assert walks == list(g.subgroup_masks)  # one coset walk per kernel
    for f in fams:
        assert set(f.elements) <= set(quotients[f.identity].elements)
    for d, cosets in pairs:
        assert set(cosets) <= set(quotients[d.kernel].elements)


# Every catalog carrier (all of order <= 24) and the subquotient benchmark's
# carriers, C2^4 by its catalog name; D6 and S4 are in both.
LISTING_CARRIERS = tuple(dict.fromkeys(CATALOG_NAMES + (
    "D6", "C4xC4", "C8xC2", "C4xC2xC2", "Q8xC2", "D8", "C2xC2xC2xC2", "D9", "S3xC3",
    "D10", "C2xC2xC6", "D4xC3", "S3xC4", "S4", "D12",
)))


@pytest.mark.parametrize("name", LISTING_CARRIERS)
def test_listing_and_census_give_the_same_cosets(name):
    # The subquotients listing and the census families are two routes over
    # the same pairs; each on a carrier of its own, they must agree pair for
    # pair: the cosets, their union H and the identity coset N.
    listed = sorted(
        (len(cosets), cosets, d.carrier, d.kernel)
        for d, cosets in enumerate_subquotients(group_from_name(name))
    )
    census = [
        (f.order, f.elements, sum(f.elements), f.identity)
        for f in lattice_power_groups(group_from_name(name), max_order=24)
    ]
    assert listed == census


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


@pytest.mark.parametrize(
    "g, mmask, nmask, refusal",
    [
        (C4, C4.full_mask, 0b0011, "^kernel 0x3 is not a subgroup"),
        (C4, 0b0011, 0b0101, "^coset 0x5 of 0x5 leaves 0x3"),
        (C4, 0b0011, 0b0001, "^family not closed: 2 is outside the carrier"),
        # The left cosets of the non-normal N = {0, 4} in D4 are not right
        # cosets, so not closed under the subset product.
        (D4, D4.full_mask, 0b00010001, "^family not closed: 0x11 is not normal"),
    ],
    ids=["kernel-not-subgroup", "coset-leaves-carrier", "carrier-not-closed", "kernel-not-normal"],
)
def test_coset_family_refuses_bad_pairs(g, mmask, nmask, refusal):
    with pytest.raises(ValueError, match=refusal):
        _quotient(g, mmask, nmask)
    if refusal.startswith("^family not closed"):
        with pytest.raises(ValueError, match="^family not closed"):
            power_group_family(g, _coset_masks(g, mmask, nmask))


def test_restriction_refuses_masks_whose_blocks_are_not_closed():
    # _restrict reads H/N off the quotient N_G(N)/N; blocks that multiply out
    # of the mask are refused.
    q = _quotient(S3, S3.full_mask, 1)  # S3 / 1
    a = next(x for x in S3.elements() if S3.element_order(x) == 3)
    with pytest.raises(ValueError, match="^family not closed: block"):
        _restrict(q, 1 | 1 << a)
    q = _quotient(D4, D4.full_mask, 0b0101)  # D4 / center
    assert _restrict(q, D4.full_mask) is q
    assert _restrict(q, 0b1111).elements == (0b0101, 0b1010)


def test_is_group_of_cosets_skips_a_carrier_that_does_not_commute():
    # The left cosets of a non-normal C2 in S3, packaged without validation:
    # H = S3 gives exactly these cosets, but aE != Ea there, so the search
    # goes on past build_coset_group's CommutationFailsError and finds none.
    t2 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    c2 = (1 << 0) | (1 << t2)
    cosets = _coset_masks(S3, S3.full_mask, c2)
    with pytest.raises(CommutationFailsError):
        build_coset_group(S3, c2, S3.full_mask)
    fake = fabricate(S3, cosets, identity_index=cosets.index(c2))
    assert isinstance(is_group_of_cosets(S3, fake), NotCosetGroup)


def test_partition_union_check_negatives():
    assert not _partition_union_check(C4, [0b0011, 0b0110])  # overlap at element 1
    assert not _partition_union_check(C4, [0b0001, 0b0010])  # union {0,1} not a subgroup
    assert _partition_union_check(C4, [0b0101, 0b1010])


def test_inverse_closure_check_refuses_a_wrong_inverse_map():
    # C4/{0, 2}: each coset is its own inverse, so the swapped map sends
    # {0, 2} to {1, 3}, which holds none of its inverses.
    fam = power_group_family(C4, [0b0101, 0b1010])
    assert fam.inverse_map == (0, 1) and check_inverse_closure(fam)
    assert not check_inverse_closure(dataclasses.replace(fam, inverse_map=(1, 0)))


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


@pytest.mark.parametrize(
    "name", THM2_GROUPS + ("S4", "D6", "Q8xC2", "D4xC3", "D4xC3 relabelled")
)
def test_match_subquotient_normality_matches_conjugation_by_every_element(name):
    # Every N <= H, normal or not, as the family of left cosets of N in H: the
    # verdict must be the one conjugation by every element of H gives.
    base, _, relabelled = name.partition(" ")
    g = group_from_name(base)
    if relabelled:
        g = _relabelled(g, 11)
    subs = g.subgroup_masks
    for h in subs:
        for n in subs:
            if n & ~h:
                continue
            masks = _coset_masks(g, h, n)
            got = match_subquotient(fabricate(g, masks, masks.index(n)))
            normal = all(
                g.conjugate_mask(n, x) == n for x in iter_bits(h)
            )
            if normal:
                assert isinstance(got, SubquotientDescriptor)
                assert (got.carrier, got.kernel) == (h, n)
            else:
                assert got.condition == "identity_not_normal_in_union"


def test_subgroups_are_validated_once(monkeypatch):
    # Each mask's subgroup verdict is computed once per carrier.  The carrier
    # caches its subgroups as masks, which every reader (normal_subgroups_of,
    # the descriptors of enumerate_subquotients, the entry checks) shares,
    # and each check after the first reads the verdict the carrier keeps.
    import powergroups.classify as classify_module
    import powergroups.groups as groups_module

    decided, checks = [], []
    real_decide = groups_module._grows_to
    real_check = groups_module.is_subgroup_mask

    def counting_decide(g, mask):
        decided.append(mask)
        return real_decide(g, mask)

    def counting_check(g, mask):
        checks.append(mask)
        return real_check(g, mask)

    monkeypatch.setattr(groups_module, "_grows_to", counting_decide)
    g = group_from_name("S4")
    pairs = enumerate_subquotients(g)
    subs = g.subgroup_masks
    assert len(subs) == 30
    assert sorted(decided) == sorted(subs)
    # The census classifies every family from scratch, and asks again.
    assert len(build_census(g, "S4", max_order=24)) == len(pairs)
    assert g.subgroup_masks is subs
    assert all(d.carrier in subs and d.kernel in subs for d, _ in pairs)
    assert sorted(decided) == sorted(subs)
    # A new carrier decides its own verdicts.
    decided.clear()
    assert len(group_from_name("S4").subgroup_masks) == 30 and len(decided) == 30
    # match_subquotient validates N and H once each.
    fam = power_group_family(g, pairs[-1][1])
    monkeypatch.setattr(groups_module, "is_subgroup_mask", counting_check)
    monkeypatch.setattr(classify_module, "is_subgroup_mask", counting_check)
    assert isinstance(match_subquotient(fam), SubquotientDescriptor)
    assert sorted(checks) == sorted([fam.identity, pairs[-1][0].carrier])


def test_build_coset_group_over_klein4():
    d = build_coset_group(V4, subset(V4, [0, 1]), V4.full_mask)
    assert d.family.order == 2
    assert set(d.family.elements) == {0b0011, 0b1100}
    rep = coset_group_epimorphism_check(d)
    assert rep.ok
    assert rep.kernel == 0b0011
    assert rep.quotient_order == 2
    assert rep.homomorphism_ok and rep.surjective and rep.kernel_normal_in_carrier


def test_build_coset_group_preconditions():
    with pytest.raises(NotIdempotentError):
        build_coset_group(C4, subset(C4, [0, 1]), C4.full_mask)
    t2 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    e = subset(S3, [0, t2])
    with pytest.raises(CommutationFailsError) as info:
        build_coset_group(S3, e, S3.full_mask)
    a = info.value.witness
    assert S3.product_mask(1 << a, e) != S3.product_mask(e, 1 << a)


def test_build_coset_group_degenerate_cases():
    # H restricted to the idempotent's own elements: one coset, trivial family.
    t2 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    e = subset(S3, [0, t2])
    d = build_coset_group(S3, e, e)
    assert d.family.order == 1 and d.family.identity == e
    # E = whole group: every translate collapses onto E.
    d = build_coset_group(V4, V4.full_mask, V4.full_mask)
    assert d.family.order == 1
    rep = coset_group_epimorphism_check(d)
    assert rep.ok and rep.kernel == V4.full_mask and rep.quotient_order == 1


def test_epimorphism_check_refuses_a_kernel_that_is_no_subgroup():
    # A descriptor whose family names the wrong identity: a -> aE is still a
    # homomorphism onto the table, but its "kernel" {1} is no subgroup, which
    # only an inconsistent descriptor can give.
    d = build_coset_group(C4, 1, C4.full_mask)
    broken = dataclasses.replace(d, family=dataclasses.replace(d.family, identity_index=1))
    with pytest.raises(HomomorphismFailsError, match="^kernel 0x2 is not a subgroup$"):
        coset_group_epimorphism_check(broken)


C4_POINTS = power_group_family(C4, [1, 2, 4, 8])  # C4 / 1


@pytest.mark.parametrize(
    "d, message",
    [
        # The carrier {0, 1} is not closed: 1 + 1 = 2 has no image.
        (CosetGroupDescriptor(1, 0b0011, C4_POINTS), "^phi\\(ab\\) != phi\\(a\\)phi\\(b\\)"),
        # aE = {a, a + 2} is no member of the family of points.
        (CosetGroupDescriptor(0b0101, C4.full_mask, C4_POINTS), "^some aE is no member of the family$"),
    ],
    ids=["carrier-not-closed", "image-not-a-member"],
)
def test_epimorphism_check_refuses_inconsistent_descriptors(d, message):
    with pytest.raises(HomomorphismFailsError, match=message):
        coset_group_epimorphism_check(d)


@pytest.mark.parametrize("g", [C6, S3], ids=lambda g: g.name)
def test_epimorphism_holds_for_every_commuting_pair(g):
    pm = g.product_mask
    built = 0
    for h in g.subgroup_masks:
        for e in g.subgroup_masks:
            if any(pm(1 << a, e) != pm(e, 1 << a) for a in g.members_of(h)):
                continue
            rep = coset_group_epimorphism_check(build_coset_group(g, e, h))
            assert rep.ok
            built += 1
    assert built > 0


@pytest.mark.parametrize("name", ["D4", "S4"])
def test_build_coset_group_forms_no_product_after_the_family(monkeypatch, name):
    # power_group_family multiplied every pair of cosets once; the product law
    # is read on its table, so no subset product follows it.
    import powergroups.classify as classify_module

    g = group_from_name(name)
    real_family, real_product = classify_module.power_group_family, FiniteGroup.product_mask
    late = []
    built = [False]

    def family(parent, masks):
        out = real_family(parent, masks)
        built[0] = True
        return out

    def product(self, a, b):
        if built[0]:
            late.append((a, b))
        return real_product(self, a, b)

    monkeypatch.setattr(classify_module, "power_group_family", family)
    monkeypatch.setattr(FiniteGroup, "product_mask", product)
    pairs = 0
    for h in g.subgroup_masks:
        for e in g.subgroup_masks:
            built[0] = False
            try:
                d = build_coset_group(g, e, h)
            except CommutationFailsError:
                assert not built[0]
                continue
            assert built[0] and not late
            built[0] = False
            assert list(d.family.elements) == _coset_masks(g, h, e)
            pairs += 1
    assert pairs > len(g.subgroup_masks)


@pytest.mark.parametrize("g", [V4, S3], ids=lambda g: g.name)
def test_every_finite_family_is_a_group_of_cosets(g):
    for fam in all_power_groups(g):
        d = is_group_of_cosets(g, fam)
        assert isinstance(d, CosetGroupDescriptor)
        assert d.idempotent == fam.identity
        assert d.family.elements == fam.elements


def test_is_group_of_cosets_reports_failure_on_fabricated_family():
    t2 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    c2 = (1 << 0) | (1 << t2)
    fake = fabricate(S3, [c2, S3.full_mask])
    got = is_group_of_cosets(S3, fake)
    assert isinstance(got, NotCosetGroup)
    # An identity without the group identity: the coset walk must still end.
    fake = fabricate(S3, [0b10, 0b100])
    assert isinstance(is_group_of_cosets(S3, fake), NotCosetGroup)
