"""Named verification suites.

Each suite returns a list of SuiteCheck results instead of raising, so the
command-line runner can print a machine-readable report and the acceptance
tests can assert on individual lines.  Suite names are stable identifiers;
new suites may be added but existing names never change meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator

from . import qcuts as qc
from . import zsets as zs
from .classify import (
    NotSubquotient,
    build_coset_group,
    check_identity_subgroup,
    check_inverse_closure,
    check_partition_union_subgroup,
    coset_group_epimorphism_check,
    enumerate_subquotients,
    match_subquotient,
)
from .errors import CommutationFailsError, NotRepresentableError, check_cap
from .groups import FiniteGroup, all_subgroups, group_from_name, normal_subgroups_of
from .search import all_power_groups, brute_force_power_groups
from .subsets import all_idempotents

__all__ = [
    "ORACLE_GROUPS",
    "SUITES",
    "THM2_GROUPS",
    "UNDERLIES_CATALOG",
    "SuiteCheck",
    "run_suite",
    "suite_oracle_equivalence",
    "suite_qcuts_thm4",
    "suite_remark1_cosets",
    "suite_thm1_equivalence",
    "suite_thm2_finite",
    "suite_zsets_thm3",
]

# Cap on the trials of one suite run (verify --trials), checked by run_suite
# before any work: zsets-thm3 takes about 3 s at the cap.
MAX_TRIALS = 3000

ORACLE_GROUPS = ("trivial", "C2", "C3", "C4", "klein4")
THM2_GROUPS = (
    "C2",
    "C3",
    "C4",
    "C5",
    "C6",
    "C7",
    "C8",
    "klein4",
    "V4xC2",
    "S3",
    "D4",
    "Q8",
    "C2xC2xC2",
)
UNDERLIES_CATALOG = ("trivial", "C2", "C3", "C4", "V4", "C5", "C6", "S3", "C8", "D4", "Q8")


@dataclass(frozen=True)
class SuiteCheck:
    suite: str
    name: str
    ok: bool
    detail: str


def suite_oracle_equivalence(**_: object) -> list[SuiteCheck]:
    """Exhaustive family scan vs idempotent-driven search on tiny carriers."""
    checks = []
    for name in ORACLE_GROUPS:
        g = group_from_name(name)
        brute = sorted(f.masks() for f in brute_force_power_groups(g))
        smart = sorted(f.masks() for f in all_power_groups(g))
        checks.append(
            SuiteCheck(
                "oracle-equivalence",
                f"{name}: exhaustive scan equals idempotent search",
                brute == smart,
                f"{len(smart)} families",
            )
        )
        if name == "C2":
            checks.append(
                SuiteCheck(
                    "oracle-equivalence",
                    "C2 carries exactly 3 families",
                    len(smart) == 3,
                    f"found {len(smart)}",
                )
            )
    return checks


def _carriers(cap: int) -> Iterator[tuple[str, FiniteGroup]]:
    """(name, group) for each THM2_GROUPS carrier of order at most cap."""
    for name in THM2_GROUPS:
        g = group_from_name(name)
        if g.order <= cap:
            yield name, g


def suite_thm2_finite(*, max_order: int = 8, **_: object) -> list[SuiteCheck]:
    """On finite carriers every family is a subquotient, counted two ways."""
    checks = []
    for name, g in _carriers(max_order):
        fams = all_power_groups(g)
        every = all(not isinstance(match_subquotient(f), NotSubquotient) for f in fams)
        expected = sum(len(normal_subgroups_of(g, h)) for h in all_subgroups(g))
        from_lattice = sorted(tuple(fam.masks()) for _, fam in enumerate_subquotients(g))
        from_search = sorted(tuple(f.masks()) for f in fams)
        checks.append(
            SuiteCheck(
                "thm2-finite",
                f"{name}: every family realized as cosets of N in H",
                every,
                f"{len(fams)} families",
            )
        )
        checks.append(
            SuiteCheck(
                "thm2-finite",
                f"{name}: census count equals sum over H of normal subgroups",
                len(fams) == expected and from_lattice == from_search,
                f"search {len(fams)}, lattice {expected}",
            )
        )
    return checks


def suite_thm1_equivalence(*, max_order: int = 8, seed: int = 0, **_: object) -> list[SuiteCheck]:
    """The four finite-carrier conditions hold together, and all fail together
    on the two genuinely infinite instances."""
    checks = []
    for name, g in _carriers(max_order):
        fams = all_power_groups(g)
        four = all(
            not isinstance(match_subquotient(f), NotSubquotient)
            and check_identity_subgroup(f)
            and check_inverse_closure(f)
            and check_partition_union_subgroup(f)
            for f in fams
        )
        checks.append(
            SuiteCheck(
                "thm1-equivalence",
                f"{name}: subquotient, identity-subgroup, inverse-closure,"
                f" partition-union agree on all families",
                four,
                f"{len(fams)} families",
            )
        )
    demo = zs.power_group_of_naturals_demo()
    checks.append(
        SuiteCheck(
            "thm1-equivalence",
            "naturals family over the integers: all three conditions fail together",
            demo.certifies_counterexample,
            f"witness {demo.member_witness} in E, {demo.missing_inverse} not in E",
        )
    )
    rep = qc.verify_cut_power_group(trials=200, seed=seed)
    checks.append(
        SuiteCheck(
            "thm1-equivalence",
            "cut family over the rationals: all three conditions fail together",
            rep.ok
            and rep.identity_subgroup_fails
            and rep.inverse_closure_fails
            and rep.partition_fails,
            f"overlap witness {rep.overlap_witness}",
        )
    )
    return checks


def suite_zsets_thm3(
    *, trials: int = 1000, seed: int = 0, window: int = 256, **_: object
) -> list[SuiteCheck]:
    """Randomized sum-oracle agreement and the unit/translate equivalence."""
    checks = []
    half = window // 2
    rng = Random(seed)
    mismatches = 0
    summed = 0
    attempts = 0
    while summed < trials and attempts < 8 * trials:
        attempts += 1
        a, b = zs.random_zset(rng), zs.random_zset(rng)
        try:
            c = zs.zset_sum(a, b)
        except NotRepresentableError:
            continue
        summed += 1
        got = zs.zset_window_mask(c, -half, half + 1)
        want = zs.minkowski_window_sum(a, b, -half, half + 1, pad=half)
        if got != want:
            mismatches += 1
    checks.append(
        SuiteCheck(
            "zsets-thm3",
            f"{trials} random sums agree with the windowed oracle on [-{half}, {half}]",
            summed == trials and mismatches == 0,
            f"{summed} summed, {mismatches} mismatches, {attempts} draws",
        )
    )

    rng2 = Random(seed + 1)
    disagreements = 0
    for _ in range(trials):
        e = zs.random_idempotent(rng2)
        if rng2.random() < 0.5:
            a = zs.zset_translate(e, rng2.randint(-12, 12))
        else:
            a = zs.random_bounded_below(rng2)
            if rng2.random() < 0.5:
                a = zs.zset_sum(a, e)  # land inside the monoid at E
        v = zs.theorem3_unit_test(e, a)
        if not v.agree:
            disagreements += 1
    checks.append(
        SuiteCheck(
            "zsets-thm3",
            f"{trials} random trials: invertible at E exactly when a translate of E",
            disagreements == 0,
            f"{disagreements} disagreements",
        )
    )

    nat = zs.naturals()
    fixed = [
        (nat, zs.zset_translate(nat, 5), True),
        (nat, zs.bounded_below(0, [1, 0], 1, [1]), False),
        (zs.bounded_below(0, [1, 0], 1, [1]), zs.zset_translate(zs.bounded_below(0, [1, 0], 1, [1]), 3), True),
    ]
    fixed_ok = True
    for e, a, expect in fixed:
        v = zs.theorem3_unit_test(e, a)
        fixed_ok &= v.agree and v.unit_ok == expect
    checks.append(
        SuiteCheck(
            "zsets-thm3",
            "pinned cases: translates are units, the thickened set is neither",
            fixed_ok,
            "3 pinned verdicts",
        )
    )

    demo = zs.power_group_of_naturals_demo()
    checks.append(
        SuiteCheck(
            "zsets-thm3",
            "naturals family is a power group whose identity is not a subgroup",
            demo.certifies_counterexample,
            f"witness {demo.member_witness}, {demo.missing_inverse}",
        )
    )
    return checks


def suite_qcuts_thm4(
    *, trials: int = 500, witness_trials: int = 100, seed: int = 0, **_: object
) -> list[SuiteCheck]:
    """The cut family is a group of subsets of the rationals but no coset family."""
    rep = qc.verify_cut_power_group(trials=trials, seed=seed)
    e = qc.identity_cut()
    checks = [
        SuiteCheck(
            "qcuts-thm4",
            "group laws pass on the sampled endpoint subgroup",
            rep.identity_ok and rep.inverses_ok and rep.associativity_ok and rep.commutativity_ok,
            f"{rep.cuts_checked} cuts, structure {rep.structure}",
        ),
        SuiteCheck(
            "qcuts-thm4",
            "identity cut is idempotent and excludes 0",
            qc.cut_sum(e, e) == e and rep.zero_not_in_identity,
            "E + E = E, 0 not in E",
        ),
        SuiteCheck(
            "qcuts-thm4",
            "membership decompositions match the endpoint law",
            rep.decomposition_failures == 0,
            f"{rep.decomposition_trials} trials",
        ),
        SuiteCheck(
            "qcuts-thm4",
            "family is not a partition",
            rep.partition_fails and rep.overlap_witness is not None,
            f"witness {rep.overlap_witness}",
        ),
    ]
    w = qc.not_coset_group_witness(trials=witness_trials, seed=seed)
    checks.append(
        SuiteCheck(
            "qcuts-thm4",
            "every rational candidate translate is separated from the root cut",
            w.ok,
            f"{w.separated}/{w.trials} separated, e.g. {w.examples[:2]}",
        )
    )
    return checks


def suite_remark1_cosets(*, max_order: int = 8, **_: object) -> list[SuiteCheck]:
    """phi(a) = aE is an epimorphism for every commuting (E, H) pair, and the
    windowed coset families over the integers obey the same law."""
    checks = []
    for name, g in _carriers(max_order):
        built = 0
        all_ok = True
        for e in all_idempotents(g):
            for h in all_subgroups(g):
                try:
                    d = build_coset_group(g, e, h)
                except CommutationFailsError:
                    continue
                if not coset_group_epimorphism_check(d).ok:
                    all_ok = False
                built += 1
        checks.append(
            SuiteCheck(
                "remark1-cosets",
                f"{name}: every commuting (E, H) pair gives a verified epimorphism",
                all_ok and built > 0,
                f"{built} pairs",
            )
        )

    gapped = zs.bounded_below(0, [1, 0], 1, [1])  # 0 plus everything from 2 on
    zcases = [
        # label, report, overlaps expected, translates distinct, structure
        ("naturals, step 1", zs.build_z_coset_group(zs.naturals(), 1), True, True, "Z"),
        ("gapped idempotent, step 1", zs.build_z_coset_group(gapped, 1), True, True, "Z"),
        ("all integers", zs.build_z_coset_group(zs.z_subgroup(1), 1), False, False, "C1"),
        # two-sided idempotents repeat across the window, so no distinctness
        ("multiples of 4, step 2", zs.build_z_coset_group(zs.z_subgroup(4), 2), False, False, "C2"),
    ]
    for label, rep, overlaps, distinct, structure in zcases:
        ok = (
            rep.product_law_ok
            and rep.structure == structure
            and (rep.overlap_witness is not None) == overlaps
            and rep.translates_distinct == distinct
        )
        checks.append(
            SuiteCheck(
                "remark1-cosets",
                f"integer cosets, {label}: product law on window, structure {structure}",
                ok,
                f"overlap {rep.overlap_witness}, kernel {rep.kernel_representatives}",
            )
        )
    return checks


SUITES: dict[str, Callable[..., list[SuiteCheck]]] = {
    "thm1-equivalence": suite_thm1_equivalence,
    "thm2-finite": suite_thm2_finite,
    "oracle-equivalence": suite_oracle_equivalence,
    "zsets-thm3": suite_zsets_thm3,
    "qcuts-thm4": suite_qcuts_thm4,
    "remark1-cosets": suite_remark1_cosets,
}


def run_suite(name: str, **caps: object) -> list[SuiteCheck]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    check_cap(caps.get("trials", 0), MAX_TRIALS, "trials")
    return SUITES[name](**caps)
