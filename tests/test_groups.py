"""Cayley-table validation, the group catalog, and subgroup machinery."""

import json
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powergroups.errors import (
    CapExceededError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotASubgroupError,
    NotClosedError,
    ParamOutOfRangeError,
    UnknownFamilyError,
)
from powergroups.groups import (
    CONSTRUCTION_CAP,
    all_subgroups,
    catalog,
    closure_mask,
    direct_product,
    exponent,
    generating_set,
    group_from_name,
    is_subgroup_mask,
    iter_bits,
    load_table_file,
    normal_subgroups_of,
    subgroup_mask,
    validate_cayley,
)
from powergroups.classify import lattice_power_groups
from powergroups.records import build_census

S3 = catalog("symmetric", 3)
D4 = catalog("dihedral", 4)
Q8 = catalog("quaternion8")
C4 = catalog("cyclic", 4)
C6 = catalog("cyclic", 6)
C8 = catalog("cyclic", 8)
V4 = catalog("klein4")


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def naive_product_mask(g, am, bm):
    out = 0
    for a in range(g.order):
        if am >> a & 1:
            for b in range(g.order):
                if bm >> b & 1:
                    out |= 1 << g.mul(a, b)
    return out


def naive_is_subgroup(g, mask):
    elems = [i for i in range(g.order) if mask >> i & 1]
    if g.identity not in elems:
        return False
    es = set(elems)
    return all(g.mul(a, b) in es for a in elems for b in elems) and all(
        g.inv(a) in es for a in elems
    )


# ---------------------------------------------------------------------------
# validate_cayley


def test_validate_accepts_cyclic_tables():
    for n in range(1, 7):
        g = validate_cayley(cyclic_table(n))
        assert g.order == n
        assert g.identity == 0
        assert all(g.inv(k) == (n - k) % n for k in range(n))


def test_validate_relabels_identity_to_zero():
    # C3 with its elements permuted so the identity sits at index 2.
    perm = (2, 0, 1)  # old index -> new index, identity (old 0) -> 2
    base = cyclic_table(3)
    shuffled = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            shuffled[perm[i]][perm[j]] = perm[base[i][j]]
    g = validate_cayley(shuffled)
    assert g.identity == 0
    assert sorted(g.element_order(a) for a in g.elements()) == [1, 3, 3]


def test_validate_rejects_empty_table():
    with pytest.raises(NoIdentityError):
        validate_cayley([])


def test_validate_rejects_ragged_and_out_of_range():
    with pytest.raises(NotClosedError):
        validate_cayley([[0, 1], [1]])
    with pytest.raises(NotClosedError):
        validate_cayley([[0, 1], [1, 7]])
    with pytest.raises(NotClosedError):
        validate_cayley([[0, 1], [1, "x"]])


def test_validate_rejects_missing_identity():
    with pytest.raises(NoIdentityError):
        validate_cayley([[0, 0], [0, 0]])


def test_validate_rejects_missing_inverse():
    # min(i, j) on {0, 1}: associative, identity is 1, but row 0 never reaches it.
    with pytest.raises(NoInverseError):
        validate_cayley([[0, 0], [0, 1]])


def test_validate_rejects_non_associative_with_witness():
    table = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
    with pytest.raises(NotAssociativeError) as info:
        validate_cayley(table)
    a, b, c = info.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def _associative_by_full_scan(t):
    n = len(t)
    return all(
        t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


def _associative_by_validator(t):
    try:
        validate_cayley(t)
    except NotAssociativeError as exc:
        a, b, c = exc.witness
        assert t[t[a][b]][c] != t[a][t[b][c]]
        return False
    except NoInverseError:
        pass  # raised after the associativity check passed
    return True


def _swapped_group_tables(rng, names, per_group):
    # Two entries off the identity's row and column swapped: the identity
    # survives, associativity usually does not.
    out = []
    for name in names:
        g = group_from_name(name)
        cells = [(a, b) for a in range(1, g.order) for b in range(1, g.order)]
        for _ in range(per_group):
            (a, b), (c, d) = rng.sample(cells, 2)
            t = [list(row) for row in g.table]
            t[a][b], t[c][d] = t[c][d], t[a][b]
            out.append(t)
    return out


def test_light_associativity_test_matches_full_scan():
    # Light's test checks (a*b)*c = a*(b*c) only for b in a generating set.
    # Random tables with an identity at a random index, orders 1-5, plus
    # group tables up to order 24 with two entries swapped.
    rng = Random(5)
    tables = []
    for _ in range(3000):
        n = rng.randint(1, 5)
        e = rng.randrange(n)
        t = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            t[e][i] = t[i][e] = i
        tables.append(t)
    names = ["C3", "V4", "S3", "Q8", "D4", "C2xC6", "D6", "C4xC4", "S4", "D12"]
    tables += _swapped_group_tables(rng, names, 6)
    verdicts = [_associative_by_full_scan(t) for t in tables]
    assert [_associative_by_validator(t) for t in tables] == verdicts
    assert 1000 < verdicts.count(False) < len(tables) - 500


def test_validate_respects_order_cap():
    with pytest.raises(CapExceededError):
        validate_cayley(cyclic_table(65))


class _UnreadableRows:
    """A table of n rows that fails the test when any row is read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __iter__(self):
        pytest.fail("read a row of a table over the cap")


def test_construction_cap_is_checked_before_any_work():
    assert CONSTRUCTION_CAP == 64
    assert validate_cayley(cyclic_table(64)).order == 64
    with pytest.raises(CapExceededError, match="^group order 65 exceeds cap 64$"):
        validate_cayley(_UnreadableRows(65))
    assert direct_product(C8, C8).order == 64
    c16 = SimpleNamespace(name="C16", order=16)  # no table to build a product from
    with pytest.raises(CapExceededError, match="^product order 128 exceeds cap 64$"):
        direct_product(C8, c16)


# ---------------------------------------------------------------------------
# Catalog


def test_catalog_orders_and_abelian_flags():
    expected = {
        "trivial": (1, True),
        "C2": (2, True),
        "C3": (3, True),
        "C5": (5, True),
        "C8": (8, True),
        "klein4": (4, True),
        "C2xC3": (6, True),
        "S3": (6, False),
        "S4": (24, False),
        "D4": (8, False),
        "D5": (10, False),
        "Q8": (8, False),
    }
    for name, (order, abelian) in expected.items():
        g = group_from_name(name)
        assert (g.order, g.is_abelian) == (order, abelian), name


def test_element_order_histograms():
    def hist(g):
        out = {}
        for a in g.elements():
            k = g.element_order(a)
            out[k] = out.get(k, 0) + 1
        return out

    assert hist(Q8) == {1: 1, 2: 1, 4: 6}
    assert hist(D4) == {1: 1, 2: 5, 4: 2}
    assert hist(V4) == {1: 1, 2: 3}
    assert hist(S3) == {1: 1, 2: 3, 3: 2}


def test_exponent():
    assert exponent(C6) == 6
    assert exponent(V4) == 2
    assert exponent(S3) == 6
    assert exponent(Q8) == 4


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ParamOutOfRangeError):
        catalog("cyclic", 0)
    with pytest.raises(ParamOutOfRangeError):
        catalog("cyclic", 2, 3)
    with pytest.raises(ParamOutOfRangeError):
        catalog("symmetric", 5)
    with pytest.raises(ParamOutOfRangeError):
        catalog("quaternion8", 2)
    with pytest.raises(ParamOutOfRangeError):
        catalog("klein4", 1)
    with pytest.raises(ParamOutOfRangeError):
        catalog("direct_product", 2, 0)
    with pytest.raises(UnknownFamilyError):
        catalog("frobnicate")


def test_catalog_checks_the_cap_before_building_a_table(monkeypatch):
    import powergroups.groups as groups_module

    def never(n):
        pytest.fail(f"built a table for n={n}")

    monkeypatch.setattr(groups_module, "_cyclic_table", never)
    monkeypatch.setattr(groups_module, "_dihedral_table", never)
    with pytest.raises(CapExceededError, match="order 100000 exceeds"):
        catalog("cyclic", 100000)
    with pytest.raises(CapExceededError, match="order 66 exceeds"):
        catalog("dihedral", 33)
    with pytest.raises(CapExceededError):
        group_from_name("C100000xC2")


def test_group_from_name_parsing():
    assert group_from_name("C2xC3").order == 6
    assert group_from_name("c2*c2").is_abelian
    for alias in ("trivial", "1", "C1", "c1"):
        assert group_from_name(alias).order == 1
    assert group_from_name("V4").table == group_from_name("klein4").table
    with pytest.raises(UnknownFamilyError):
        group_from_name("X9")
    with pytest.raises(UnknownFamilyError):
        group_from_name("")
    with pytest.raises(ParamOutOfRangeError):
        group_from_name("S5")


def test_direct_product_structure():
    g = direct_product(catalog("cyclic", 2), catalog("cyclic", 3))
    assert g.order == 6 and g.is_abelian
    assert max(g.element_order(a) for a in g.elements()) == 6  # so iso to C6
    # Pair (i1, i2) sits at index i1 * n2 + i2 and multiplies componentwise.
    c2, c3 = catalog("cyclic", 2), catalog("cyclic", 3)
    for i1 in range(2):
        for i2 in range(3):
            for j1 in range(2):
                for j2 in range(3):
                    got = g.mul(i1 * 3 + i2, j1 * 3 + j2)
                    assert got == c2.mul(i1, j1) * 3 + c3.mul(i2, j2)
    with pytest.raises(CapExceededError):
        direct_product(C8, catalog("cyclic", 16))


# ---------------------------------------------------------------------------
# Subgroups


@pytest.mark.parametrize("g", [S3, D4, C6, V4, Q8], ids=lambda g: g.name)
def test_subgroup_detection_matches_naive_definition(g):
    for mask in range(1, 1 << g.order):
        assert is_subgroup_mask(g, mask) == naive_is_subgroup(g, mask)


def _relabelled(g, seed):
    # The same group under a seeded permutation of its element indices.
    perm = list(range(g.order))
    Random(seed).shuffle(perm)
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return validate_cayley(table, name=f"{g.name}~{seed}")


SUBGROUP_COUNTS = {
    "C6": 4, "C8": 4, "klein4": 5, "S3": 6, "D4": 10, "Q8": 6,
    "D6": 16, "C2xC6": 10, "S4": 30, "C2xC2xC2xC2": 67,
}


def test_all_subgroups_counts_and_order():
    # Classical counts: cyclic groups have one subgroup per divisor; V4 has
    # trivial + three C2 + itself; D4 has 10; Q8 has 1 + 1 + 3 + 1; D6 has
    # 16, C2xC6 10, S4 30 and C2^4 67 (1 + 15 + 35 + 15 + 1).  The naive
    # 2^n scan, independent of the lattice, runs up to order 12.
    for name, expected in SUBGROUP_COUNTS.items():
        base = group_from_name(name)
        for g in (base, _relabelled(base, 1), _relabelled(base, 2)):
            subs = all_subgroups(g)
            assert len(subs) == expected, g.name
            keys = [(s.size, s.members) for s in subs]
            assert keys == sorted(keys)
            if g.order <= 12:
                assert {s.members for s in subs} == {
                    m for m in range(1, 1 << g.order) if naive_is_subgroup(g, m)
                }


@pytest.mark.parametrize("name", ["S4", "D6", "C2xC2xC2xC2", "Q8"])
def test_subgroup_lattice_closes_once_per_coset(name, monkeypatch):
    # <H, gh> = <H, g>, so extending H takes one closure per left coset
    # gH != H: at most [G:H] - 1 closures per subgroup.
    import powergroups.groups as groups_module

    g = _relabelled(group_from_name(name), 3)
    seeds = []
    real = groups_module.closure_mask

    def counting(table, seed):
        seeds.append(seed)
        return real(table, seed)

    monkeypatch.setattr(groups_module, "closure_mask", counting)
    subs = groups_module.subgroup_lattice(g.table, g.identity)
    assert len(subs) == SUBGROUP_COUNTS[name]
    assert len(seeds) <= sum(g.order // m.bit_count() - 1 for m in subs)


def test_subgroup_mask_validation():
    h = subgroup_mask(C4, [0, 2])
    assert h.size == 2 and h.elements() == (0, 2) and 2 in h and 1 not in h
    with pytest.raises(NotASubgroupError):
        subgroup_mask(C4, [0, 1])  # 1 + 1 = 2 escapes the mask
    with pytest.raises(NotASubgroupError):
        subgroup_mask(C4, [1, 2])  # misses the identity


def test_normal_subgroups_relative_to_carrier():
    full = subgroup_mask(S3, (1 << 6) - 1)
    normals = normal_subgroups_of(S3, full)
    assert sorted(n.size for n in normals) == [1, 3, 6]
    # Inside a C2 carrier the same C2 is normal even though it is not in S3.
    c2 = next(h for h in all_subgroups(S3) if h.size == 2)
    assert sorted(n.size for n in normal_subgroups_of(S3, c2)) == [1, 2]
    # Every subgroup of Q8 is normal.
    q8full = subgroup_mask(Q8, (1 << 8) - 1)
    assert len(normal_subgroups_of(Q8, q8full)) == len(all_subgroups(Q8))
    with pytest.raises(NotASubgroupError):
        normal_subgroups_of(D4, subgroup_mask(S3, [0]))


@pytest.mark.parametrize("name", ["S4", "D6", "Q8xC2"])
def test_generator_normality_matches_conjugation_by_every_element(name):
    g = group_from_name(name)
    subs = all_subgroups(g)
    for h in subs:
        want = [
            n.members
            for n in subs
            if not n.members & ~h.members
            and all(g.conjugate_mask(n.members, x) == n.members for x in h.elements())
        ]
        assert [n.members for n in normal_subgroups_of(g, h)] == want


def test_generating_set_generates_each_subgroup():
    g = group_from_name("S4")
    for h in all_subgroups(g):
        gens = generating_set(g, h.members)
        assert all(h.members >> x & 1 for x in gens)
        span = closure_mask(g.table, 1 | sum(1 << x for x in gens))
        assert span == h.members
    assert generating_set(g, 1) == []


def test_subgroup_lattice_runs_once_per_group(monkeypatch):
    import powergroups.groups as groups_module

    calls = []
    real = groups_module.subgroup_lattice

    def counting(table, identity):
        calls.append(len(table))
        return real(table, identity)

    monkeypatch.setattr(groups_module, "subgroup_lattice", counting)
    g = group_from_name("S4")
    subs = all_subgroups(g)
    for h in subs:
        normal_subgroups_of(g, h)
    assert all_subgroups(g) == subs
    assert calls == [24]
    # A new group object builds its own lattice, once, also through the
    # whole census.
    assert len(build_census(group_from_name("D4"), "D4")) == 30
    assert calls == [24, 8]


def test_census_validates_each_family_once(monkeypatch):
    # Each distinct family table is checked once per carrier: families with
    # byte-equal tables share the validated group kept in g.family_tables.
    import powergroups.search as search

    calls = []
    real = search._group_of_table

    def counting(table, **kw):
        calls.append(table)
        return real(table, **kw)

    monkeypatch.setattr(search, "_group_of_table", counting)
    g = group_from_name("D4")
    records = build_census(g, "D4")
    assert len(records) == 30
    fams = lattice_power_groups(g)
    distinct = {f.abstract_table for f in fams}
    assert sorted(calls) == sorted(distinct) and len(calls) < len(records)
    assert all(g.family_tables[f.abstract_table][0] is f.abstract for f in fams)
    # The memo belongs to the carrier: a fresh D4 checks its tables again.
    calls.clear()
    build_census(group_from_name("D4"), "D4")
    assert sorted(calls) == sorted(distinct)


# ---------------------------------------------------------------------------
# Mask arithmetic


@given(raw_a=st.integers(min_value=0), raw_b=st.integers(min_value=0), pick=st.integers(0, 2))
def test_mask_operations_match_naive_loops(raw_a, raw_b, pick):
    g = (S3, D4, C6)[pick]
    am = 1 + raw_a % g.full_mask
    bm = 1 + raw_b % g.full_mask
    assert g.product_mask(am, bm) == naive_product_mask(g, am, bm)
    b = next(iter_bits(bm))
    assert g.product_mask(am, 1 << b) == naive_product_mask(g, am, 1 << b)
    assert g.product_mask(1 << b, am) == naive_product_mask(g, 1 << b, am)
    want_inv = 0
    for a in iter_bits(am):
        want_inv |= 1 << g.inv(a)
    assert g.inverse_mask(am) == want_inv
    h = next(iter_bits(bm))
    want_conj = 0
    for a in iter_bits(am):
        want_conj |= 1 << g.mul(g.mul(h, a), g.inv(h))
    assert g.conjugate_mask(am, h) == want_conj


def test_iter_bits_round_trip():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []
    mask = 0
    for i in iter_bits(0b1110010):
        mask |= 1 << i
    assert mask == 0b1110010


def test_closure_mask_generates_subgroups():
    # In D4 the rotations occupy indices 0..3; closing over one rotation
    # of order 4 yields exactly that block.
    assert closure_mask(D4.table, 0b10 | 1) == 0b1111
    assert closure_mask(S3.table, 1) == 1


def _naive_closure(table, seed):
    # Add every pairwise product until nothing changes.
    cur = seed
    while True:
        elems = list(iter_bits(cur))
        nxt = cur
        for a in elems:
            for b in elems:
                nxt |= 1 << table[a][b]
        if nxt == cur:
            return cur
        cur = nxt


@pytest.mark.parametrize("name", ["S4", "D6", "Q8xC2"])
def test_closure_mask_matches_naive_fixpoint(name):
    g = group_from_name(name)
    rng = Random(name)
    for _ in range(60):
        seed = 0
        for x in rng.sample(range(g.order), rng.randint(1, 4)):
            seed |= 1 << x
        assert closure_mask(g.table, seed) == _naive_closure(g.table, seed)


# ---------------------------------------------------------------------------
# Table files


def test_load_table_file_round_trip(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"order": 3, "table": cyclic_table(3)}))
    g = load_table_file(str(path))
    assert g.order == 3 and g.name == "c3"


def test_load_table_file_rejects_bad_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": cyclic_table(3)}))
    with pytest.raises(NotClosedError):
        load_table_file(str(bad))
    bad.write_text(json.dumps({"order": 4, "table": cyclic_table(3)}))
    with pytest.raises(NotClosedError):
        load_table_file(str(bad))
    bad.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(NotClosedError):
        load_table_file(str(bad))
