"""The named verification suites run clean at reduced caps."""

import sys

import pytest

from powergroups import groups
from powergroups.suites import SUITES, SuiteCheck, run_suite, suite_thm2_finite

EXPECTED_SUITES = {
    "thm1-equivalence",
    "thm2-finite",
    "oracle-equivalence",
    "zsets-thm3",
    "qcuts-thm4",
    "remark1-cosets",
}


def assert_all_ok(checks, suite_name):
    assert checks, suite_name
    for c in checks:
        assert isinstance(c, SuiteCheck)
        assert c.suite == suite_name
        assert c.name and c.detail
        assert c.ok, f"{suite_name}: {c.name}: {c.detail}"


def test_suite_registry_is_stable():
    assert set(SUITES) == EXPECTED_SUITES
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("no-such-suite")


def test_oracle_equivalence_suite():
    checks = run_suite("oracle-equivalence")
    assert_all_ok(checks, "oracle-equivalence")
    assert len(checks) == 6  # five carriers plus the pinned C2 count


def test_thm2_suite():
    checks = run_suite("thm2-finite", max_order=8)
    assert_all_ok(checks, "thm2-finite")
    assert len(checks) == 26  # thirteen carriers, two checks each


def test_thm2_oracle_keeps_true_counts_under_a_lattice_that_drops_a_subgroup(monkeypatch):
    # The idempotent oracle lists unit-group subgroups by its own closure
    # walk, so a census lattice that loses the subgroup {e, x_(n-1)} of every
    # table of order >= 5 fails the suite against the oracle's true counts
    # instead of taking the oracle down with it.
    real = groups.subgroup_lattice

    def dropping(table, identity):
        found = real(table, identity)
        if len(table) < 5:
            return found
        return [m for m in found if m != 1 << identity | 1 << len(table) - 1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "powergroups" and getattr(module, "subgroup_lattice", None) is real:
            monkeypatch.setattr(module, "subgroup_lattice", dropping)
    checks = {c.name: c for c in suite_thm2_finite(max_order=8)}
    for name, count in (("V4xC2", 66), ("D4", 30)):
        check = checks[f"{name}: census count equals sum over H of normal subgroups"]
        assert not check.ok
        assert check.detail.startswith(f"search {count}, lattice ")


def test_thm1_suite():
    checks = run_suite("thm1-equivalence", max_order=8, seed=0)
    assert_all_ok(checks, "thm1-equivalence")
    assert len(checks) == 15  # thirteen carriers plus the two infinite instances


def test_zsets_suite_reduced():
    checks = run_suite("zsets-thm3", trials=60, seed=3, window=128)
    assert_all_ok(checks, "zsets-thm3")
    assert len(checks) == 4


def test_qcuts_suite_reduced():
    checks = run_suite("qcuts-thm4", trials=40, witness_trials=12, seed=1)
    assert_all_ok(checks, "qcuts-thm4")
    assert len(checks) == 5


def test_remark1_suite():
    checks = run_suite("remark1-cosets", max_order=8)
    assert_all_ok(checks, "remark1-cosets")
    assert len(checks) == 17  # thirteen carriers plus four integer windows
