"""Search for subset families forming groups, checked against brute force."""

import pytest

from powergroups.classify import lattice_power_groups
from powergroups.errors import CapExceededError, CayleyTableError, NotIdempotentError
from powergroups.groups import catalog, group_from_name
from powergroups.search import (
    all_power_groups,
    brute_force_power_groups,
    local_monoid,
    power_group_family,
    unit_group,
)
from powergroups.subsets import subset

S3 = catalog("symmetric", 3)
D4 = catalog("dihedral", 4)
C4 = catalog("cyclic", 4)

# Families per carrier, independently countable as the sum over subgroups H
# of the number of subgroups normal in H.  Examples:
#   S3: 1 (trivial) + 3*2 (each C2) + 2 (C3) + 3 (S3 itself) = 12
#   D4: 1 + 5*2 + 3 (C4) + 2*5 (two V4) + 6 (D4) = 30
#   Q8: 1 + 2 (center) + 3*3 (three C4) + 6 (Q8, all subgroups normal) = 18
#   C2^3: 1 + 7*2 + 7*5 (seven V4) + 16 = 66
FAMILY_COUNTS = {
    "trivial": 1,
    "C2": 3,
    "C3": 3,
    "C4": 6,
    "C5": 3,
    "C6": 9,
    "C7": 3,
    "C8": 10,
    "klein4": 12,
    "V4xC2": 66,
    "S3": 12,
    "D4": 30,
    "Q8": 18,
    "C2xC2xC2": 66,
}


def a3_masks():
    elems = [a for a in S3.elements() if S3.element_order(a) != 2]
    a3 = 0
    for a in elems:
        a3 |= 1 << a
    return a3, S3.full_mask ^ a3


def test_power_group_family_packages_coset_pair():
    a3, odd = a3_masks()
    fam = power_group_family(S3, [odd, a3])
    assert fam.order == 2
    assert fam.masks() == tuple(sorted((a3, odd)))
    assert fam.identity.members == a3
    assert fam.inverse_map == (0, 1)  # both cosets are self-inverse
    assert fam.abstract_group().order == 2
    assert fam.canonical_key() == fam.masks()


def test_power_group_family_rejects_unclosed_and_non_group():
    with pytest.raises(ValueError, match="not closed"):
        power_group_family(C4, [0b0001, 0b0011])
    with pytest.raises(ValueError):
        power_group_family(C4, [])
    # Closed under the product but no inverse for the second element.
    with pytest.raises(CayleyTableError):
        power_group_family(catalog("cyclic", 2), [0b01, 0b11])


def test_local_monoid_extremes():
    whole = local_monoid(S3, subset(S3, S3.full_mask))
    assert [m.members for m in whole.members] == [S3.full_mask]
    at_identity = local_monoid(S3, subset(S3, [0]))
    assert at_identity.size == (1 << 6) - 1
    with pytest.raises(NotIdempotentError):
        local_monoid(C4, subset(C4, [0, 1]))
    s4 = group_from_name("S4")
    with pytest.raises(CapExceededError):
        local_monoid(s4, subset(s4, [0]))


def test_unit_group_members_have_identity_size():
    singles = unit_group(S3, subset(S3, [0]))
    assert singles.order == S3.order
    assert all(a.size == 1 for a in singles.elements)
    a3, odd = a3_masks()
    cosets = unit_group(S3, subset(S3, a3))
    assert cosets.order == 2
    assert set(cosets.masks()) == {a3, odd}
    assert all(a.size == 3 for a in cosets.elements)


@pytest.mark.parametrize("name", ["trivial", "C2", "C3", "C4", "klein4"])
def test_search_agrees_with_brute_force(name):
    g = group_from_name(name)
    brute = sorted(f.masks() for f in brute_force_power_groups(g))
    smart = sorted(f.masks() for f in all_power_groups(g))
    assert brute == smart


@pytest.mark.parametrize("name", sorted(FAMILY_COUNTS))
def test_family_counts(name):
    g = group_from_name(name)
    assert len(all_power_groups(g)) == FAMILY_COUNTS[name]


@pytest.mark.parametrize("g", [S3, D4], ids=lambda g: g.name)
def test_family_invariants(g):
    pm = g.product_mask
    for fam in all_power_groups(g):
        # Exactly one member is idempotent, and it is the identity.
        idems = [m for m in fam.masks() if pm(m, m) == m]
        assert idems == [fam.identity.members]
        # Every member has the identity's size and members are disjoint.
        size = fam.identity.size
        union = 0
        for a in fam.elements:
            assert a.size == size
            assert union & a.members == 0
            union |= a.members
        # A * A^-1 = identity.
        for i, a in enumerate(fam.elements):
            b = fam.elements[fam.inverse_map[i]]
            assert pm(a.members, b.members) == fam.identity.members


def test_parallel_search_matches_serial():
    # The process pool is gone; the search must still repeat itself exactly
    # and list the lattice census's families in the same order.
    first = [f.masks() for f in all_power_groups(S3)]
    again = [f.masks() for f in all_power_groups(S3)]
    assert first == again == [f.masks() for f in lattice_power_groups(S3)]


def test_search_caps():
    with pytest.raises(CapExceededError):
        all_power_groups(group_from_name("S4"))
    with pytest.raises(CapExceededError):
        brute_force_power_groups(S3)
