"""Isomorphism testing and the subset-family reachability relation."""

import time
from itertools import product
from random import Random

import pytest

from powergroups.cli import CATALOG_NAMES
from powergroups.errors import CapExceededError
from powergroups.groups import direct_product, generating_set, group_from_name, validate_cayley
from powergroups.iso import (
    GroupFingerprint,
    _square_roots,
    are_isomorphic,
    fingerprint,
    matrix_is_transitive,
    matrix_to_csv,
    underlies,
    underlies_matrix,
)

S3 = group_from_name("S3")
D4 = group_from_name("D4")
Q8 = group_from_name("Q8")
C4 = group_from_name("C4")
V4 = group_from_name("klein4")


def relabel(g, perm):
    table = [[0] * g.order for _ in range(g.order)]
    for i in range(g.order):
        for j in range(g.order):
            table[perm[i]][perm[j]] = perm[g.table[i][j]]
    return validate_cayley(table, name=f"{g.name}-relabeled")


def assert_verified_iso(g1, g2, phi):
    assert sorted(phi) == list(range(g1.order))
    for a in range(g1.order):
        for b in range(g1.order):
            assert phi[g1.mul(a, b)] == g2.mul(phi[a], phi[b])



def _scanned_fingerprint(g):
    # The general computation: the center and the conjugacy classes found by
    # scanning every pair of elements, whatever g.is_abelian says.
    n = g.order
    orders = {}
    for a in range(n):
        orders[g.element_order(a)] = orders.get(g.element_order(a), 0) + 1
    center = sum(1 for a in range(n) if all(g.mul(a, b) == g.mul(b, a) for b in range(n)))
    classes = {frozenset(g.mul(g.mul(h, a), g.inv(h)) for h in range(n)) for a in range(n)}
    return GroupFingerprint(
        order=n,
        abelian=g.is_abelian,
        element_orders=tuple(sorted(orders.items())),
        center_size=center,
        conjugacy_class_sizes=tuple(sorted(len(c) for c in classes)),
    )


def test_abelian_fingerprints_match_the_scan():
    # fingerprint reads an abelian group's center and classes off its order;
    # they must be what the scan finds, on every abelian catalog group and
    # under relabelling.  The non-abelian groups check the scan itself.
    products = ("C2xC4", "C3xC3", "C2xC6", "C4xC4", "C2xC2xC6", "C2xC2xC2xC2xC2", "D6", "Q8xC2")
    names = (*CATALOG_NAMES, "C16", *products)
    abelian = 0
    for name in names:
        base = group_from_name(name)
        perm = list(range(base.order))
        Random(name).shuffle(perm)
        for g in (base, relabel(base, perm)):
            assert fingerprint(g) == _scanned_fingerprint(g), g.name
        abelian += base.is_abelian
    assert abelian >= 15


@pytest.mark.parametrize(
    "g1,g2",
    [
        (group_from_name("C6"), direct_product(group_from_name("C2"), group_from_name("C3"))),
        (V4, direct_product(group_from_name("C2"), group_from_name("C2"))),
        (S3, group_from_name("D3")),
        (C4, relabel(C4, (2, 0, 3, 1))),
        (Q8, relabel(Q8, (3, 1, 4, 0, 7, 5, 2, 6))),
    ],
    ids=["C6~C2xC3", "V4~C2xC2", "S3~D3", "C4-relabel", "Q8-relabel"],
)
def test_isomorphic_pairs(g1, g2):
    phi = are_isomorphic(g1, g2)
    assert phi is not None
    assert_verified_iso(g1, g2, phi)


@pytest.mark.parametrize(
    "g1,g2",
    [
        (C4, V4),
        (Q8, D4),
        (group_from_name("C8"), direct_product(C4, group_from_name("C2"))),
        (group_from_name("C8"), group_from_name("C2xC2xC2")),
        (group_from_name("C6"), S3),
        (group_from_name("C2"), group_from_name("C3")),
    ],
    ids=["C4/V4", "Q8/D4", "C8/C4xC2", "C8/C2^3", "C6/S3", "order-mismatch"],
)
def test_non_isomorphic_pairs(g1, g2):
    assert are_isomorphic(g1, g2) is None


def _c4_semidirect_c4():
    # a^i b^j with b a b^-1 = a^-1: (a^i b^j)(a^k b^l) = a^(i +- k) b^(j + l).
    def mul(x, y):
        (i, j), (k, l) = divmod(x, 4), divmod(y, 4)
        return (i + (-k if j % 2 else k)) % 4 * 4 + (j + l) % 4

    return validate_cayley([[mul(x, y) for y in range(16)] for x in range(16)], name="C4:C4")


@pytest.mark.parametrize("k", [0, 1, 2], ids=["order16", "order32", "order64"])
def test_equal_fingerprints_of_different_groups_are_refused_promptly(k):
    # (C4 x| C4) x C2^k and Q8 x C2^(k+1) share every fingerprint field; the
    # generator search alone took seconds at order 64.  Their square-root
    # counts differ, so are_isomorphic refuses them before searching.
    g1 = _c4_semidirect_c4()
    for _ in range(k):
        g1 = direct_product(g1, group_from_name("C2"))
    g2 = group_from_name("Q8" + "xC2" * (k + 1))
    assert fingerprint(g1) == fingerprint(g2)
    start = time.perf_counter()
    assert are_isomorphic(g1, g2) is None
    assert time.perf_counter() - start < 0.5
    phi = are_isomorphic(g1, relabel(g1, list(reversed(range(g1.order)))))
    assert phi is not None


def _leaf_only_isomorphism(g1, g2):
    """The reference search: are_isomorphic as it was before it pruned.  An
    image is chosen for every generator before anything is checked, and only
    a complete image tuple is grown into a map and tested (the plain
    backtrack that Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005, prune).  The prefilter is the production one."""
    if g1.order != g2.order:
        return None
    if fingerprint(g1) != fingerprint(g2) or _square_roots(g1) != _square_roots(g2):
        return None
    n = g1.order
    gens = generating_set(g1, g1.full_mask)
    cands = [[b for b in range(n) if g2.element_order(b) == g1.element_order(a)] for a in gens]

    def extend(images):
        phi = [-1] * n
        phi[g1.identity] = g2.identity
        used = 1 << g2.identity
        queue = [g1.identity]
        for a, b in zip(gens, images):
            if phi[a] == -1:
                if used >> b & 1:
                    return None
                phi[a] = b
                used |= 1 << b
                queue.append(a)
            elif phi[a] != b:
                return None
        for x in queue:
            for a, b in zip(gens, images):
                y, fy = g1.mul(x, a), g2.mul(phi[x], b)
                if phi[y] == -1:
                    if used >> fy & 1:
                        return None
                    phi[y] = fy
                    used |= 1 << fy
                    queue.append(y)
                elif phi[y] != fy:
                    return None
        return phi if len(queue) == n else None

    # The leaves in the order the recursive search reaches them.  A tuple
    # that repeats an image fails extend's first loop, so it is skipped
    # before a map is allocated.
    k = len(gens)
    for images in product(*cands):
        if len(set(images)) == k:
            phi = extend(images)
            if phi is not None:
                return tuple(phi)
    return None


def _metacyclic(m, n, r):
    """C_m x|_r C_n: a^i b^j with b a b^-1 = a^r, at index i * n + j."""
    def mul(x, y):
        (i, j), (k, l) = divmod(x, n), divmod(y, n)
        return (i + pow(r, j, m) * k) % m * n + (j + l) % n

    return validate_cayley([[mul(x, y) for y in range(m * n)] for x in range(m * n)], name=f"C{m}:{r}C{n}")


@pytest.mark.parametrize(
    "pair",
    ["C2xC2xC2xC2xC2xC2", "D4xC2xC2xC2", "S4xC2", "C4xC4xC2", "Q8/D4", "metacyclic"],
)
def test_pruned_search_matches_the_leaf_only_reference(pair):
    # A conflict over <gens[:i]> is a conflict over g1, so pruning there
    # keeps the first valid image tuple: the same mapping, or the same None.
    # Each product is relabelled and searched against itself; the last two
    # pairs are not isomorphic, and the metacyclic ones share every invariant
    # of the prefilter.
    if pair == "Q8/D4":
        g1, g2 = group_from_name("Q8xC2xC2"), group_from_name("D4xC2xC2")
    elif pair == "metacyclic":
        g1 = direct_product(_metacyclic(8, 4, 5), group_from_name("C2"))
        g2 = direct_product(_metacyclic(8, 2, 5), group_from_name("C4"))
    else:
        g = group_from_name(pair)
        perm = list(range(g.order))
        Random(pair).shuffle(perm)
        g1 = g2 = relabel(g, perm)
    start = time.perf_counter()
    phi = are_isomorphic(g1, g2)
    elapsed = time.perf_counter() - start
    assert phi == _leaf_only_isomorphism(g1, g2)
    assert (phi is None) == (pair in ("Q8/D4", "metacyclic"))
    if pair == "C2xC2xC2xC2xC2xC2":
        assert elapsed < 1.0


def test_fingerprint_invariants():
    fp = fingerprint(group_from_name("C8"))
    assert fp.element_orders == ((1, 1), (2, 1), (4, 2), (8, 4))
    fp_d4 = fingerprint(D4)
    assert fp_d4.element_orders == ((1, 1), (2, 5), (4, 2))
    assert fp_d4.center_size == 2
    assert fp_d4.conjugacy_class_sizes == (1, 1, 2, 2, 2)
    fp_q8 = fingerprint(Q8)
    # Same class sizes as D4; the element-order histogram tells them apart.
    assert fp_q8.conjugacy_class_sizes == (1, 1, 2, 2, 2)
    assert fp_q8.element_orders == ((1, 1), (2, 1), (4, 6))
    fp_s3 = fingerprint(S3)
    assert fp_s3 == fingerprint(group_from_name("D3"))
    assert fp_s3.center_size == 1 and fp_s3.conjugacy_class_sizes == (1, 2, 3)


def test_underlies_positive_witnesses():
    for g1, g2 in [(S3, group_from_name("C2")), (S3, group_from_name("C3")),
                   (S3, S3), (D4, V4), (D4, C4), (Q8, V4)]:
        w = underlies(g1, g2)
        assert w is not None, (g1.name, g2.name)
        fam = w.family
        # Re-verify the witness end to end: the family lives over g1, is
        # closed, and its abstract group maps onto g2 by the returned iso.
        masks = set(fam.elements)
        for a in fam.elements:
            for b in fam.elements:
                assert g1.product_mask(a, b) in masks
        assert_verified_iso(fam.abstract, g2, w.mapping)


def test_underlies_negative_cases():
    assert underlies(S3, C4) is None
    assert underlies(S3, V4) is None
    assert underlies(Q8, D4) is None
    assert underlies(group_from_name("C8"), V4) is None


def test_underlies_respects_search_cap():
    with pytest.raises(CapExceededError):
        underlies(group_from_name("S4"), group_from_name("C2"))


def test_matrix_agrees_with_pairwise_relation():
    groups = [group_from_name(n) for n in ("trivial", "C2", "C3", "C4", "V4", "S3")]
    matrix = underlies_matrix(groups)
    for i, gi in enumerate(groups):
        for j, gj in enumerate(groups):
            assert matrix[i][j] == (underlies(gi, gj) is not None)
        assert matrix[i][i]  # the whole-group singleton family is always there
    assert matrix_is_transitive(matrix)


def test_matrix_transitivity_detects_violations():
    broken = [
        [False, True, False],
        [False, False, True],
        [False, False, False],
    ]
    assert not matrix_is_transitive(broken)
    assert matrix_is_transitive([[True]])


def test_matrix_to_csv_layout():
    csv = matrix_to_csv(["A", "B"], [[True, False], [False, True]])
    assert csv == ",A,B\nA,1,0\nB,0,1\n"
