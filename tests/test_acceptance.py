"""Acceptance suite: eight criteria, one visible PASS/FAIL line each.

Every expected count here was computed by an independent route before being
frozen (exhaustive scans, subgroup-lattice sums, normalizer arithmetic, hand
checks on the small carriers) and is asserted exactly, never approximately.
The report lines are emitted outside pytest's capture, so they show up in
every run, not only with -s.
"""

import time

import pytest

from powergroups.classify import (
    build_coset_group,
    coset_group_epimorphism_check,
    enumerate_subquotients,
)
from powergroups.groups import group_from_name, iter_bits, normal_subgroups_of, power_group_family
from powergroups.iso import are_isomorphic, matrix_is_transitive, underlies_matrix
from powergroups.qcuts import (
    cut_sum,
    identity_cut,
    not_coset_group_witness,
    verify_cut_power_group,
)
from powergroups.records import build_census
from powergroups.search import all_idempotents, all_power_groups, brute_force_power_groups
from powergroups.suites import ORACLE_GROUPS, THM2_GROUPS, UNDERLIES_CATALOG, run_suite
from powergroups.zsets import (
    bounded_below,
    build_z_coset_group,
    naturals,
    power_group_of_naturals_demo,
    z_subgroup,
)

# Family count per carrier: sum over subgroups H of the number of subgroups
# normal in H, verified against the brute-force scan on the order <= 4 cases
# and against the search on the rest.
EXPECTED_FAMILIES = {
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

# Commuting (E, H) pair count per carrier: for each idempotent E (a subgroup,
# on finite carriers) the valid H are exactly the subgroups of the normalizer
# of E, so the count is sum over E of #subgroups(N(E)).  Abelian carriers give
# (#subgroups)^2.
EXPECTED_COSET_PAIRS = {
    "C2": 4,
    "C3": 4,
    "C4": 9,
    "C5": 4,
    "C6": 16,
    "C7": 4,
    "C8": 16,
    "klein4": 25,
    "V4xC2": 256,
    "S3": 24,
    "D4": 80,
    "Q8": 36,
    "C2xC2xC2": 256,
}


def _report(capsys, num: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {status}  {title}  ({detail})", flush=True)


@pytest.fixture(scope="module")
def census():
    """One census per carrier, shared by criteria 2, 3 and 5."""
    out = {}
    for name in THM2_GROUPS:
        g = group_from_name(name)
        out[name] = (g, build_census(g, name))
    return out


def test_criterion_1_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    mismatched = []
    c2_count = None
    for name in ORACLE_GROUPS:
        g = group_from_name(name)
        brute = sorted(f.elements for f in brute_force_power_groups(g))
        smart = sorted(f.elements for f in all_power_groups(g))
        if brute != smart:
            mismatched.append(name)
        if name == "C2":
            c2_count = len(smart)
    elapsed = time.perf_counter() - t0
    ok = not mismatched and c2_count == 3 and elapsed < 60.0
    _report(
        capsys,
        1,
        "exhaustive scan equals idempotent search on all carriers of order <= 4",
        ok,
        f"{len(ORACLE_GROUPS)} carriers, C2 families={c2_count}, {elapsed:.2f}s",
    )
    assert not mismatched, f"oracle mismatch on {mismatched}"
    assert c2_count == 3
    assert elapsed < 60.0


def test_criterion_2_finite_families_are_subquotients(capsys, census):
    t0 = time.perf_counter()
    failures = []
    total = 0
    for name, (g, records) in census.items():
        lattice_count = sum(len(normal_subgroups_of(g, h)) for h in g.subgroup_masks)
        non_subquotient = [r for r in records if not r.subquotient]
        total += len(records)
        if non_subquotient:
            failures.append(f"{name}: {len(non_subquotient)} families miss")
        if len(records) != lattice_count:
            failures.append(f"{name}: census {len(records)} != lattice {lattice_count}")
        if len(records) != EXPECTED_FAMILIES[name]:
            failures.append(f"{name}: census {len(records)} != frozen {EXPECTED_FAMILIES[name]}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(
        capsys,
        2,
        "every family over every carrier of order <= 8 is a subquotient, counts match the lattice",
        ok,
        f"{len(census)} carriers, {total} families, {elapsed:.2f}s",
    )
    assert not failures, "; ".join(failures)
    assert elapsed < 300.0


def test_criterion_3_equivalence_both_ways(capsys, census):
    bad_records = []
    for name, (_, records) in census.items():
        for r in records:
            if not (
                r.subquotient
                and r.identity_subgroup
                and r.inverse_closed
                and r.partition_union_subgroup
            ):
                bad_records.append((name, r.family))
    demo = power_group_of_naturals_demo()
    demo_all_false = not (
        demo.identity_is_subgroup
        or demo.inverse_closure_holds
        or demo.partition_union_subgroup_holds
    ) and demo.subquotient_condition_failed == "identity_not_subgroup"
    rep = verify_cut_power_group(trials=120, seed=0)
    cuts_all_false = (
        rep.identity_subgroup_fails
        and rep.inverse_closure_fails
        and rep.partition_fails
        and rep.subquotient_condition_failed == "identity_not_subgroup"
    )
    ok = not bad_records and demo_all_false and cuts_all_false
    _report(
        capsys,
        3,
        "four conditions all true on every finite record, all false on both infinite families",
        ok,
        f"{sum(len(r) for _, r in census.values())} records, 2 infinite counterexamples",
    )
    assert not bad_records, f"flags disagree on {bad_records[:3]}"
    assert demo_all_false
    assert cuts_all_false


def test_criterion_4_naturals_counterexample(capsys):
    demo = power_group_of_naturals_demo()
    ok = (
        demo.certifies_counterexample
        and demo.member_witness == 1
        and demo.missing_inverse == -1
    )
    _report(
        capsys,
        4,
        "the one-member family over the integers is a group whose identity is not a subgroup",
        ok,
        f"witness {demo.member_witness} in E, {demo.missing_inverse} not in E",
    )
    assert ok


def test_criterion_5_every_coset_construction_is_an_epimorphism(capsys, census):
    failures = []
    pair_counts = {}
    for name, (g, _) in census.items():
        pm = g.product_mask
        built = 0
        for e in all_idempotents(g):
            for h in g.subgroup_masks:
                if any(pm(1 << a, e) != pm(e, 1 << a) for a in iter_bits(h)):
                    continue
                d = build_coset_group(g, e, h)
                if not coset_group_epimorphism_check(d).ok:
                    failures.append(f"{name}: E={e:#x} H={h:#x}")
                built += 1
        pair_counts[name] = built
        if built != EXPECTED_COSET_PAIRS[name]:
            failures.append(f"{name}: {built} pairs != frozen {EXPECTED_COSET_PAIRS[name]}")
    zcases = [
        (build_z_coset_group(naturals(), 1), "Z"),
        (build_z_coset_group(bounded_below(0, [1, 0], 1, [1]), 1), "Z"),
        (build_z_coset_group(z_subgroup(1), 1), "C1"),
        (build_z_coset_group(z_subgroup(4), 2), "C2"),
    ]
    for i, (zrep, structure) in enumerate(zcases):
        if not (zrep.product_law_ok and zrep.structure == structure):
            failures.append(f"integer case {i}: law={zrep.product_law_ok} structure={zrep.structure}")
    ok = not failures
    _report(
        capsys,
        5,
        "a -> aE is a verified epimorphism for every commuting pair, finite and integer-window",
        ok,
        f"{sum(pair_counts.values())} finite pairs + 4 integer cases",
    )
    assert not failures, "; ".join(failures[:5])


def test_criterion_6_integer_set_property_suite(capsys):
    t0 = time.perf_counter()
    checks = run_suite("zsets-thm3", trials=1000, seed=0, window=256)
    elapsed = time.perf_counter() - t0
    failed = [c for c in checks if not c.ok]
    ok = not failed and elapsed < 60.0
    _report(
        capsys,
        6,
        "1000 seeded sum-oracle trials and 1000 unit/translate trials, zero disagreements",
        ok,
        f"{len(checks)} checks, {elapsed:.2f}s",
    )
    assert not failed, failed
    assert elapsed < 60.0


def test_criterion_7_rational_cut_family(capsys):
    rep = verify_cut_power_group()
    e = identity_cut()
    laws_ok = (
        rep.identity_ok
        and rep.inverses_ok
        and rep.associativity_ok
        and rep.commutativity_ok
        and cut_sum(e, e) == e
        and rep.zero_not_in_identity
        and rep.decomposition_failures == 0
    )
    w = not_coset_group_witness(trials=100, seed=0)
    ok = laws_ok and rep.ok and w.ok and w.separated == 100
    _report(
        capsys,
        7,
        "cut family passes exact group laws; no coset presentation survives 100 separators",
        ok,
        f"{rep.cuts_checked} cuts, {rep.decomposition_trials} decompositions, "
        f"{w.separated}/{w.trials} separated",
    )
    assert laws_ok
    assert rep.ok
    assert w.ok and w.separated == 100


def test_criterion_8_underlies_matrix(capsys):
    t0 = time.perf_counter()
    groups = [group_from_name(name) for name in UNDERLIES_CATALOG]
    matrix = underlies_matrix(groups)
    reflexive = all(matrix[i][i] for i in range(len(groups)))
    transitive = matrix_is_transitive(matrix)
    # Independent route: the (H, N) pairs, each coset family multiplied out
    # by power_group_family rather than read off a quotient table.
    disagreements = []
    for i, g in enumerate(groups):
        quotients = [power_group_family(g, cosets).abstract for _, cosets in enumerate_subquotients(g)]
        for j, target in enumerate(groups):
            via_census = any(
                q.order == target.order and are_isomorphic(q, target) is not None
                for q in quotients
            )
            if via_census != matrix[i][j]:
                disagreements.append((UNDERLIES_CATALOG[i], UNDERLIES_CATALOG[j]))
    elapsed = time.perf_counter() - t0
    ok = reflexive and transitive and not disagreements and elapsed < 600.0
    _report(
        capsys,
        8,
        "underlies relation over the 11-group catalog is reflexive, transitive, census-consistent",
        ok,
        f"{len(groups)}x{len(groups)} matrix, {elapsed:.2f}s",
    )
    assert reflexive
    assert transitive
    assert not disagreements, disagreements
    assert elapsed < 600.0
