"""Subset masks and the induced product on nonempty subsets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powergroups.errors import CapExceededError, ParentMismatchError
from powergroups.groups import catalog, group_from_name, is_subgroup_mask
from powergroups.subsets import (
    _idempotents_are_subgroups,
    all_idempotents,
    inverse_set,
    is_idempotent,
    subset,
    subset_product,
)

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


@given(raw_a=st.integers(min_value=0), raw_b=st.integers(min_value=0), pick=st.integers(0, 1))
def test_subset_product_matches_elementwise_definition(raw_a, raw_b, pick):
    g = (S3, D4)[pick]
    a = subset(g, 1 + raw_a % g.full_mask)
    b = subset(g, 1 + raw_b % g.full_mask)
    want = {g.mul(x, y) for x in a for y in b}
    assert set(subset_product(a, b).elements()) == want


def test_subset_product_rejects_parent_mismatch():
    with pytest.raises(ParentMismatchError):
        subset_product(subset(S3, [0]), subset(C4, [0]))


def test_inverse_set():
    a = subset(C4, [1, 2])
    assert set(inverse_set(a).elements()) == {3, 2}
    for g in (S3, D4):
        b = subset(g, [0, 1, 3])
        assert set(inverse_set(b).elements()) == {g.inv(x) for x in b}


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
    assert _idempotents_are_subgroups(g)


def test_all_idempotents_respects_cap():
    with pytest.raises(CapExceededError):
        all_idempotents(catalog("cyclic", 17))
