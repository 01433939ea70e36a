"""Subset masks, subgroup masks among them, and the induced product on nonempty subsets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powergroups.errors import CapExceededError, NotASubgroupError
from powergroups.groups import (
    GroupSubset,
    SubgroupMask,
    catalog,
    group_from_name,
    is_idempotent,
    is_subgroup_mask,
    subset,
)
from powergroups.search import all_idempotents

from conftest import subgroup_mask

S3 = catalog("symmetric", 3)
D4 = catalog("dihedral", 4)
C4 = catalog("cyclic", 4)


def test_subset_construction_and_views():
    a = subset(S3, [0, 2, 5])
    assert a.members == 0b100101
    assert a.size == 3
    assert a.elements() == (0, 2, 5)
    assert 2 in a and 3 not in a
    assert list(a) == [0, 2, 5]
    assert subset(S3, 0b100101) == a


def test_subset_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        subset(S3, [])
    with pytest.raises(ValueError):
        subset(S3, 0)
    with pytest.raises(ValueError):
        subset(S3, 1 << 6)  # element 6 does not exist in S3
    for mask in (True, 1.0, -1):  # a bool or a float is no mask
        with pytest.raises(ValueError, match="is not a nonempty subset of S3"):
            GroupSubset(S3, mask)


def test_subgroup_mask_is_a_validated_group_subset():
    h = subgroup_mask(C4, [0, 2])
    assert isinstance(h, GroupSubset) and isinstance(h, SubgroupMask)
    assert (h.size, h.elements(), list(h), 2 in h) == (2, (0, 2), [0, 2], True)
    assert repr(h) == "SubgroupMask(C4, {0,2})"
    assert repr(subset(C4, [0, 2])) == "GroupSubset(C4, {0,2})"
    # Dataclass equality compares classes: a subgroup is not equal to the
    # plain subset with its mask, and the two hash as separate keys.
    assert h != GroupSubset(C4, 0b0101) and GroupSubset(C4, 0b0101) != h
    assert h == SubgroupMask(C4, 0b0101)
    assert len({h, GroupSubset(C4, 0b0101), SubgroupMask(C4, 0b0101)}) == 2
    for mask in (0b0011, 0b0100, 0, 1 << 4):
        with pytest.raises(NotASubgroupError):
            SubgroupMask(C4, mask)


@given(raw_a=st.integers(min_value=0), raw_b=st.integers(min_value=0), pick=st.integers(0, 1))
def test_subset_product_matches_elementwise_definition(raw_a, raw_b, pick):
    g = (S3, D4)[pick]
    a = subset(g, 1 + raw_a % g.full_mask)
    b = subset(g, 1 + raw_b % g.full_mask)
    want = {g.mul(x, y) for x in a for y in b}
    assert set(subset(g, g.product_mask(a.members, b.members))) == want


def test_inverse_set():
    assert set(subset(C4, C4.inverse_mask(0b0110))) == {3, 2}
    for g in (S3, D4):
        b = subset(g, [0, 1, 3])
        assert set(subset(g, g.inverse_mask(b.members))) == {g.inv(x) for x in b}


def test_is_idempotent_examples():
    assert is_idempotent(subset(C4, [0, 2]))
    assert is_idempotent(subset(C4, [0, 1, 2, 3]))
    assert not is_idempotent(subset(C4, [0, 1]))
    assert not is_idempotent(subset(C4, [1, 3]))  # squares to {0, 2}


@pytest.mark.parametrize(
    "name", ["trivial", "C2", "C4", "klein4", "C6", "S3", "C8", "D4", "Q8"]
)
def test_idempotents_are_exactly_the_subgroups(name):
    # Finite product-closed nonempty subsets contain inverses, so the scan
    # must return precisely the subgroup masks.
    g = group_from_name(name)
    idem = {e.members for e in all_idempotents(g)}
    assert idem == {m for m in range(1, 1 << g.order) if is_subgroup_mask(g, m)}


def test_all_idempotents_respects_cap():
    with pytest.raises(CapExceededError):
        all_idempotents(catalog("cyclic", 17))
