"""Search for subset families forming groups, checked against brute force."""

import resource
import subprocess
import sys

import pytest

from powergroups.classify import lattice_power_groups
from powergroups.errors import CapExceededError, CayleyTableError, NotIdempotentError
from powergroups.groups import (
    SEARCH_CAP,
    FiniteGroup,
    group_from_name,
    power_group_family,
    subset,
)
from powergroups.search import (
    BRUTE_FORCE_CAP,
    all_idempotents,
    all_power_groups,
    brute_force_power_groups,
    local_monoid,
    unit_group,
)

S3 = group_from_name("S3")
D4 = group_from_name("D4")
C4 = group_from_name("C4")

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
    assert fam.elements == tuple(sorted((a3, odd)))
    assert fam.identity == a3
    assert fam.inverse_map == (0, 1)  # both cosets are self-inverse
    assert fam.abstract.order == 2


def test_power_group_family_rejects_unclosed_and_non_group():
    with pytest.raises(ValueError, match="not closed"):
        power_group_family(C4, [0b0001, 0b0011])
    with pytest.raises(ValueError):
        power_group_family(C4, [])
    # Closed under the product but no inverse for the second element.
    with pytest.raises(CayleyTableError):
        power_group_family(group_from_name("C2"), [0b01, 0b11])


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# Each bad mask must be refused with ValueError before any product is formed;
# a negative mask has infinitely many set bits, so expanding one never ends.
BAD_MASKS = """
from powergroups.groups import group_from_name, power_group_family

c4 = group_from_name("C4")
for masks in ([-1], [1 << 4], [1, 1 << 5], [0], [True], [1.5], [0b0101, -1]):
    try:
        power_group_family(c4, masks)
    except ValueError as exc:
        print(exc)
for op in (c4.members_of, c4.inverse_mask, lambda m: c4.product_mask(1, m),
           lambda m: c4.product_mask(m, 1), lambda m: c4.conjugate_mask(m, 1)):
    try:
        op(-1)
    except ValueError as exc:
        print(exc)
"""


def test_power_group_family_refuses_bad_masks_promptly():
    proc = subprocess.run(
        [sys.executable, "-c", BAD_MASKS],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    refused = [f"mask {m} is not a nonempty subset of C4" for m in (-1, 16, 32, 0, True, 1.5, -1)]
    assert proc.stdout.splitlines() == refused + ["mask -1 is negative"] * 5


def test_local_monoid_extremes():
    whole = local_monoid(S3, subset(S3, S3.full_mask))
    assert whole.members == (S3.full_mask,)
    at_identity = local_monoid(S3, subset(S3, [0]))
    assert at_identity.size == (1 << 6) - 1
    assert at_identity.members == tuple(range(1, 1 << 6))  # every nonempty mask, as an int
    with pytest.raises(NotIdempotentError):
        local_monoid(C4, subset(C4, [0, 1]))
    s4 = group_from_name("S4")
    with pytest.raises(CapExceededError):
        local_monoid(s4, subset(s4, [0]))


def test_unit_group_members_have_identity_size():
    singles = unit_group(S3, subset(S3, [0]))
    assert singles.order == S3.order
    assert all(a.bit_count() == 1 for a in singles.elements)
    a3, odd = a3_masks()
    cosets = unit_group(S3, subset(S3, a3))
    assert cosets.order == 2
    assert set(cosets.elements) == {a3, odd}
    assert all(a.bit_count() == 3 for a in cosets.elements)


@pytest.mark.parametrize("name", ["trivial", "C2", "C3", "C4", "klein4"])
def test_search_agrees_with_brute_force(name):
    g = group_from_name(name)
    brute = sorted(f.elements for f in brute_force_power_groups(g))
    smart = sorted(f.elements for f in all_power_groups(g))
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
        idems = [m for m in fam.elements if pm(m, m) == m]
        assert idems == [fam.identity]
        # Every member has the identity's size and members are disjoint.
        size = fam.identity.bit_count()
        union = 0
        for a in fam.elements:
            assert a.bit_count() == size
            assert union & a == 0
            union |= a
        # A * A^-1 = identity.
        for i, a in enumerate(fam.elements):
            b = fam.elements[fam.inverse_map[i]]
            assert pm(a, b) == fam.identity


def test_parallel_search_matches_serial():
    # The process pool is gone; the search must still repeat itself exactly
    # and list the lattice census's families in the same order.
    first = [f.elements for f in all_power_groups(S3)]
    again = [f.elements for f in all_power_groups(S3)]
    assert first == again == [f.elements for f in lattice_power_groups(S3)]


@pytest.fixture
def no_subset_products(monkeypatch):
    def fail(self, a, b):
        pytest.fail("multiplied subsets before checking the cap")

    monkeypatch.setattr(FiniteGroup, "product_mask", fail)


C17 = group_from_name("C17")


@pytest.mark.parametrize(
    "scan",
    [
        all_power_groups,
        all_idempotents,
        lambda g: local_monoid(g, subset(g, [0])),
        lambda g: unit_group(g, subset(g, [0])),
    ],
    ids=["all_power_groups", "all_idempotents", "local_monoid", "unit_group"],
)
def test_subset_scans_refuse_cap_plus_one_before_any_work(scan, no_subset_products):
    assert SEARCH_CAP == 16 == C17.order - 1
    with pytest.raises(CapExceededError, match="at order 17 exceeds cap 16$"):
        scan(C17)


def test_brute_force_refuses_cap_plus_one_before_any_work(no_subset_products):
    assert BRUTE_FORCE_CAP == 4
    with pytest.raises(CapExceededError, match="at order 5 exceeds cap 4$"):
        brute_force_power_groups(group_from_name("C5"))


def test_search_caps():
    with pytest.raises(CapExceededError):
        all_power_groups(group_from_name("S4"))
    with pytest.raises(CapExceededError):
        brute_force_power_groups(S3)
