"""Subset masks, subgroup masks among them, the checks every entry applies to
them, and the induced product on nonempty subsets."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powergroups.classify import build_coset_group, is_group_of_cosets
from powergroups.errors import (
    CapExceededError,
    NotASubgroupError,
    NotIdempotentError,
)
from powergroups.groups import (
    generating_set,
    group_from_name,
    is_idempotent,
    is_subgroup_mask,
    iter_bits,
    normal_subgroups_of,
    power_group_family,
    subset,
)
from powergroups.search import all_idempotents, local_monoid, unit_group

S3 = group_from_name("S3")
D4 = group_from_name("D4")
C4 = group_from_name("C4")


def test_subset_construction_and_views():
    a = subset(S3, [0, 2, 5])
    assert a == 0b100101 and type(a) is int
    assert S3.members_of(a) == (0, 2, 5)
    assert subset(S3, 0b100101) == a
    assert subset(S3, (i for i in (5, 0, 2, 0))) == a  # any iterable; repeats collapse


def test_subset_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        subset(S3, [])
    with pytest.raises(ValueError):
        subset(S3, 0)
    with pytest.raises(ValueError):
        subset(S3, 1 << 6)  # element 6 does not exist in S3
    for mask in (True, False, -1):  # a bool is no mask
        with pytest.raises(ValueError, match="is not a nonempty subset of S3"):
            subset(S3, mask)
    # Every index must be an int, not a bool, in range(S3.order).
    for members, bad in (([True, 2], "True"), ([1.5], "1.5"), ([-1], "-1"),
                         ([0, 6], "6"), (["1"], "'1'"), ([None], "None")):
        with pytest.raises(ValueError, match=f"^{bad} is not an element index of S3$"):
            subset(S3, members)
    # A non-int that is not iterable is neither kind of subset.
    for members in (1.0, 1.5, None):
        with pytest.raises(ValueError, match=f"^{members} is neither a mask nor an iterable"):
            subset(S3, members)


def test_subgroup_test_refuses_non_masks():
    # A bool, a float or a string is no mask, so it is no subgroup either.
    for mask in (True, False, 1.0, 1.5, "1"):
        assert is_subgroup_mask(C4, mask) is False
    assert is_subgroup_mask(C4, 1) and is_subgroup_mask(C4, 0b0101)
    for mask in (0b0011, 0b0100, 0, -1, 1 << 4):
        assert not is_subgroup_mask(C4, mask)


# Every public callable that takes a mask, called with g and that mask, and
# what it does with {0, 1} of C4, which is no subgroup: the error it raises
# (and the start of its message), or None when it accepts the mask.
MASK_ENTRIES = {
    "subset": (subset, None),
    "is_idempotent": (is_idempotent, None),
    "normal_subgroups_of": (normal_subgroups_of, (NotASubgroupError, "mask 0x3 is not a subgroup of C4")),
    "build_coset_group.emask": (lambda g, m: build_coset_group(g, m, g.full_mask), (NotIdempotentError, "EE != E")),
    "build_coset_group.hmask": (lambda g, m: build_coset_group(g, 1, m), (NotASubgroupError, "mask 0x3")),
    "generating_set": (generating_set, (NotASubgroupError, "mask 0x3 is not a subgroup of C4")),
    "power_group_family": (lambda g, m: power_group_family(g, [m]), (ValueError, "family not closed")),
    "local_monoid": (local_monoid, (NotIdempotentError, "EE != E")),
    "unit_group": (unit_group, (NotIdempotentError, "EE != E")),
}


@pytest.mark.parametrize("entry", sorted(MASK_ENTRIES))
def test_mask_entries_check_their_masks_against_their_group(entry):
    call, on_non_subgroup = MASK_ENTRIES[entry]
    # A carrier whose table cannot be read: each refusal comes before any
    # product.  Unchecked, 0 reads as a closed subset and 1 << 4 reaches row 4.
    unread = dataclasses.replace(C4, table=None)
    for mask in (0, 1 << C4.order, -1, True, 1.5):
        with pytest.raises(ValueError, match=r"is not a nonempty subset of C4|is neither a mask"):
            call(unread, mask)
    # Nor is any lattice, subgroup verdict or member tuple cached.
    assert not {"subgroup_masks", "subgroup_verdicts", "member_tuples"} & unread.__dict__.keys()
    if on_non_subgroup is None:
        call(C4, 0b0011)
    else:
        error, message = on_non_subgroup
        with pytest.raises(error, match="^" + message):
            call(C4, 0b0011)
    call(C4, 0b0101)  # a subgroup passes every entry


def test_a_mask_belongs_to_the_group_it_is_passed_with():
    # A mask carries no group, so an entry reads it over the group passed
    # beside it: the mask that named all of C4 names all of V4, and one that
    # names all of C8 is refused, not taken out of V4's table.
    v4 = group_from_name("klein4")
    d = build_coset_group(v4, subset(v4, [0, 1]), group_from_name("C4").full_mask)
    assert (d.family.parent, d.idempotent, d.carrier) == (v4, 0b0011, v4.full_mask)
    assert d.family.elements == (0b0011, 0b1100)
    with pytest.raises(ValueError, match="^mask 255 is not a nonempty subset of V4$"):
        build_coset_group(v4, subset(v4, [0, 1]), group_from_name("C8").full_mask)
    # A family holds its carrier, and is classified over that carrier only.
    c4_by_singletons = power_group_family(C4, [1, 2, 4, 8])
    with pytest.raises(ValueError, match="^family over C4 is not over V4$"):
        is_group_of_cosets(v4, c4_by_singletons)
    assert is_group_of_cosets(C4, c4_by_singletons).family == c4_by_singletons


@given(raw_a=st.integers(min_value=0), raw_b=st.integers(min_value=0), pick=st.integers(0, 1))
def test_subset_product_matches_elementwise_definition(raw_a, raw_b, pick):
    g = (S3, D4)[pick]
    a = subset(g, 1 + raw_a % g.full_mask)
    b = subset(g, 1 + raw_b % g.full_mask)
    want = {g.mul(x, y) for x in iter_bits(a) for y in iter_bits(b)}
    assert set(iter_bits(g.product_mask(a, b))) == want


def test_inverse_set():
    assert set(iter_bits(C4.inverse_mask(0b0110))) == {3, 2}
    for g in (S3, D4):
        b = subset(g, [0, 1, 3])
        assert set(iter_bits(g.inverse_mask(b))) == {g.inv(x) for x in iter_bits(b)}


def test_is_idempotent_examples():
    assert is_idempotent(C4, subset(C4, [0, 2]))
    assert is_idempotent(C4, subset(C4, [0, 1, 2, 3]))
    assert not is_idempotent(C4, subset(C4, [0, 1]))
    assert not is_idempotent(C4, subset(C4, [1, 3]))  # squares to {0, 2}


@pytest.mark.parametrize(
    "name", ["trivial", "C2", "C4", "klein4", "C6", "S3", "C8", "D4", "Q8"]
)
def test_idempotents_are_exactly_the_subgroups(name):
    # Finite product-closed nonempty subsets contain inverses, so the scan
    # must return precisely the subgroup masks.
    g = group_from_name(name)
    idem = set(all_idempotents(g))
    assert idem == {m for m in range(1, 1 << g.order) if is_subgroup_mask(g, m)}


def test_all_idempotents_respects_cap():
    with pytest.raises(CapExceededError):
        all_idempotents(group_from_name("C17"))
