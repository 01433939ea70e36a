"""Command-line contract: verbs, output shapes, exit codes 0/1/2."""

import dataclasses
import json
import subprocess
import sys

import pytest

from powergroups import qcuts, suites
from powergroups.cli import build_parser, main
from powergroups.errors import InternalFaultError
from powergroups.groups import group_from_name, subgroup_mask
from powergroups.subsets import subset
from powergroups.suites import SuiteCheck


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# enum / subquotients


def test_enum_stdout(capsys):
    code, out, err = run(capsys, "enum", "--group", "C2")
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 3
    assert all(line["group"] == "C2" and line["subquotient"] for line in lines)
    assert "group=C2 families=3 subquotients=3" in err


def test_enum_to_file(capsys, tmp_path):
    path = tmp_path / "c4.jsonl"
    code, out, err = run(capsys, "enum", "--group", "C4", "--out", str(path))
    assert code == 0
    assert "families=6" in out  # summary moves to stdout when writing a file
    assert len(json_lines(path.read_text())) == 6


def test_enum_is_parallel_stable(capsys, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "enum", "--group", "S3", "--out", str(p1))[0] == 0
    assert run(capsys, "enum", "--group", "S3", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_enum_rejects_jobs(capsys):
    # --jobs went with the process pool; argparse rejects it as a usage error.
    with pytest.raises(SystemExit) as info:
        main(["enum", "--group", "S3", "--jobs", "2"])
    assert info.value.code == 2


def test_enum_cap_and_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "enum", "--group", "S4")
    assert code == 2 and "--max-order" in err
    code, _, err = run(capsys, "enum", "--group", "nonsense")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "enum")
    assert code == 2 and "need --group" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 3, "table": [[0, 1, 2], [1, 1, 0], [2, 0, 1]]}))
    code, _, err = run(capsys, "enum", "--table", str(bad))
    assert code == 2 and "(a*b)*c" in err


def test_enum_from_table_file(capsys, tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(
        json.dumps({"order": 3, "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]})
    )
    code, out, err = run(capsys, "enum", "--table", str(path))
    assert code == 0 and len(json_lines(out)) == 3 and "group=c3" in err


def test_subquotients_listing(capsys):
    code, out, err = run(capsys, "subquotients", "--group", "S3")
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 12 and "subquotients=12" in err
    for line in lines:
        assert set(line["kernel"]) <= set(line["carrier"])
        assert line["order"] == len(line["family"])


# ---------------------------------------------------------------------------
# verify


def test_verify_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "oracle-equivalence")
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 6
    assert all(line["ok"] for line in lines)
    assert {line["suite"] for line in lines} == {"oracle-equivalence"}
    assert "failed=0" in err


def test_verify_reduced_randomized_suites(capsys):
    code, out, _ = run(capsys, "verify", "zsets-thm3", "--trials", "40", "--seed", "1")
    assert code == 0 and all(line["ok"] for line in json_lines(out))
    code, out, _ = run(capsys, "verify", "qcuts-thm4", "--trials", "30", "--seed", "1")
    assert code == 0 and all(line["ok"] for line in json_lines(out))


def test_verify_out_file_holds_stdout(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "oracle-equivalence")
    path = tmp_path / "verify.jsonl"
    code_out, out_out, err_out = run(capsys, "verify", "oracle-equivalence", "--out", str(path))
    assert code == code_out == 0
    assert path.read_text() == out
    assert (out_out, err_out) == (err, "")  # the summary moves to stdout


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "no-such-suite"])
    assert info.value.code == 2


def test_verify_reports_failures_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "powergroups.cli.run_suite",
        lambda *a, **k: [SuiteCheck("fake", "forced failure", False, "details")],
    )
    code, out, err = run(capsys, "verify", "oracle-equivalence")
    assert code == 1
    assert json_lines(out)[0]["ok"] is False
    assert "failed=1" in err


# ---------------------------------------------------------------------------
# internal faults: explicit checks (kept under python -O), exit 1, no traceback


def _flatten_family_tables(monkeypatch, module):
    """Make every family of order > 1 built through module carry a constant,
    non-group table, as a bug in the table construction would."""
    import powergroups.search as search

    real = search.power_group_family

    def faulty(parent, masks):
        fam = real(parent, masks)
        if fam.order == 1:
            return fam
        zeros = tuple((0,) * fam.order for _ in range(fam.order))
        return dataclasses.replace(fam, abstract_table=zeros)

    monkeypatch.setattr(module, "power_group_family", faulty)


def test_power_group_family_fault_exits_1(capsys, monkeypatch):
    import powergroups.search as search

    # Family tables are built from positions, so only the group axioms are
    # checked on them, not validate_cayley's input sanitation.
    real = search._group_of_table
    monkeypatch.setattr(search, "_group_of_table", lambda table, **kw: real(((0,),), **kw))
    with pytest.raises(InternalFaultError, match="validated as order 1"):
        search.power_group_family(group_from_name("C2"), [0b01, 0b10])
    code, out, err = run(capsys, "enum", "--group", "C2")
    assert code == 1 and out == ""
    assert err.startswith("error: internal fault:") and "Traceback" not in err


def test_build_coset_group_fault_exits_1(capsys, monkeypatch):
    import powergroups.classify as classify

    _flatten_family_tables(monkeypatch, classify)
    g = group_from_name("C2")
    with pytest.raises(InternalFaultError, match="family table"):
        classify.build_coset_group(g, subset(g, [0]), subgroup_mask(g, g.full_mask))
    code, _, err = run(capsys, "verify", "remark1-cosets", "--max-order", "2")
    assert code == 1 and err.startswith("error: internal fault:")


def test_homomorphism_failure_exits_1(capsys, monkeypatch):
    import powergroups.classify as classify
    import powergroups.suites as suites

    # Families with broken tables reach the epimorphism check unverified.
    def unchecked(g, e, h):
        masks = sorted({g.product_mask(1 << a, e.members) for a in h.elements()})
        return classify.CosetGroupDescriptor(e, h, classify.power_group_family(g, masks))

    _flatten_family_tables(monkeypatch, classify)
    monkeypatch.setattr(suites, "build_coset_group", unchecked)
    code, _, err = run(capsys, "verify", "remark1-cosets", "--max-order", "2")
    assert code == 1
    assert err.startswith("error: internal fault: phi(ab) != phi(a)phi(b)")


def test_internal_key_error_exits_1():
    # argparse rejects unknown suites, so a KeyError can only be a bug: it must
    # not be reported as bad input (exit 2).
    code = (
        "import sys\n"
        "from powergroups import cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise KeyError('internal')\n"
        "cli.build_census = broken\n"
        "sys.exit(cli.main(['enum', '--group', 'C2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "KeyError: 'internal'" in proc.stderr


def test_zset_sum_self_check_fault_exits_1(capsys, monkeypatch):
    import powergroups.zsets as zsets

    real = zsets.minkowski_window_sum
    monkeypatch.setattr(zsets, "minkowski_window_sum", lambda *a, **kw: real(*a, **kw) ^ 1)
    code, out, err = run(capsys, "zset", "sum", "BB(0;;1;1)", "BB(0;;1;1)")
    assert code == 1 and out == ""
    assert err.startswith("error: internal fault: sum failed windowed self-check")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# underlies


def test_underlies_pair_yes_and_no(capsys):
    code, out, _ = run(capsys, "underlies", "--g1", "S3", "--g2", "C2")
    assert code == 0
    assert out.startswith("yes\n")
    doc = json_lines(out.splitlines()[1])[0]
    assert len(doc["family"]) == 2 and doc["identity"]
    code, out, _ = run(capsys, "underlies", "--g1", "C3", "--g2", "C2")
    assert code == 0 and out.strip() == "no"


@pytest.mark.parametrize("g1, g2", [("S3", "C2"), ("C3", "C2")])
def test_underlies_pair_out_file_holds_stdout(capsys, tmp_path, g1, g2):
    code, out, err = run(capsys, "underlies", "--g1", g1, "--g2", g2)
    path = tmp_path / "pair.txt"
    assert run(capsys, "underlies", "--g1", g1, "--g2", g2, "--out", str(path)) == (code, "", err)
    assert path.read_text() == out


def test_underlies_caps_only_the_enumerated_group(capsys):
    # The census of each enumerated group checks --max-order; g2 is only
    # compared with g1's families, so its order is never capped.
    code, out, err = run(capsys, "underlies", "--matrix", "default", "--max-order", "4")
    assert code == 2 and out == "" and "exceeds cap 4" in err
    code, out, err = run(capsys, "underlies", "--g1", "S3", "--g2", "C2", "--max-order", "4")
    assert code == 2 and out == "" and "order 6 exceeds cap 4" in err
    code, out, err = run(capsys, "underlies", "--g1", "C2", "--g2", "S3", "--max-order", "2")
    assert (code, out, err) == (0, "no\n", "")


def test_underlies_requires_arguments(capsys):
    code, _, err = run(capsys, "underlies")
    assert code == 2 and "--matrix" in err
    code, _, err = run(capsys, "underlies", "--matrix", "weird")
    assert code == 2


def test_underlies_matrix_csv(capsys, tmp_path):
    path = tmp_path / "matrix.csv"
    code, out, _ = run(capsys, "underlies", "--matrix", "default", "--out", str(path))
    assert code == 0
    assert "transitive: true" in out
    rows = path.read_text().splitlines()
    assert rows[0] == ",trivial,C2,C3,C4,V4,C5,C6,S3,C8,D4,Q8"
    assert len(rows) == 12
    table = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
    names = rows[0].split(",")[1:]
    for name in names:
        assert table[name][names.index(name)] == "1"  # reflexive diagonal
    assert table["D4"] == ["1", "1", "0", "1", "1", "0", "0", "0", "0", "1", "0"]
    assert table["Q8"] == ["1", "1", "0", "1", "1", "0", "0", "0", "0", "0", "1"]


# ---------------------------------------------------------------------------
# catalog


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("Q8\torder=8\tabelian=false") for line in lines)
    assert any(line.startswith("C6\torder=6\tabelian=true") for line in lines)


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "--group", "Q8")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8 and doc["abelian"] is False
    assert doc["element_orders"] == [[1, 1], [2, 1], [4, 6]]
    assert doc["subgroups"] == 6 and doc["normal_subgroups"] == 6
    code, _, err = run(capsys, "catalog", "show", "--group", "wat")
    assert code == 2 and "error:" in err


def test_catalog_show_huge_group_is_usage_error(capsys, monkeypatch):
    import powergroups.groups as groups

    # The cap must be checked before the 10^10-entry table would be built.
    monkeypatch.setattr(groups, "_cyclic_table", lambda n: pytest.fail(f"built C{n}"))
    code, out, err = run(capsys, "catalog", "show", "--group", "C100000")
    assert code == 2 and out == ""
    assert err == "error: group order 100000 exceeds cap 64\n"


# ---------------------------------------------------------------------------
# zset


def test_zset_sum(capsys):
    code, out, _ = run(capsys, "zset", "sum", "BB(0;;1;1)", "BB(0;;1;1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["sum"] == "BB(0;;1;1)"
    assert doc["window_members"][:3] == [0, 1, 2]
    code, out, _ = run(capsys, "zset", "sum", "TS(2;0)", "TS(2;1)", "--window", "8")
    doc = json.loads(out)
    assert doc["sum"] == "TS(2;1)"
    assert doc["window_members"] == [-3, -1, 1, 3]


def test_zset_sum_unrepresentable_is_usage_error(capsys):
    code, _, err = run(capsys, "zset", "sum", "BB(0;;1;1)", "BA(0;;1;1)")
    assert code == 2 and "not representable" in err


def test_zset_idempotent(capsys):
    code, out, _ = run(capsys, "zset", "idempotent", "TS(3;0)")
    assert code == 0 and json.loads(out)["idempotent"] is True
    code, out, _ = run(capsys, "zset", "idempotent", "BB(1;;1;1)")
    assert code == 0 and json.loads(out)["idempotent"] is False
    code, _, err = run(capsys, "zset", "idempotent", "BB(oops)")
    assert code == 2 and "cannot parse" in err


def test_zset_coset_group(capsys):
    code, out, _ = run(capsys, "zset", "coset-group", "--identity", "BB(0;;1;1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["product_law_ok"] is True and doc["structure"] == "Z"
    code, _, err = run(capsys, "zset", "coset-group", "--identity", "BB(1;;1;1)")
    assert code == 2 and "E + E != E" in err


def test_zset_coset_group_prints_set_texts(capsys):
    code, out, err = run(capsys, "zset", "coset-group", "--identity", "TS(4;0,2)", "--step", "3")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["idempotent"] == "TS(2;0)" and doc["structure"] == "C2"
    assert '"idempotent":"TS(2;0)"' in out and '"structure":"C2"' in out
    code, out, _ = run(capsys, "zset", "coset-group", "--identity", "BB(0;;1;1)")
    assert code == 0 and '"idempotent":"BB(0;;1;1)"' in out


def test_zset_thm3(capsys):
    code, out, _ = run(
        capsys, "zset", "thm3-test", "--identity", "BB(0;;1;1)", "--candidate", "BB(5;;1;1)"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["unit"] and doc["translate"] and doc["agree"]
    assert doc["residual"] == "BB(-5;;1;1)"
    code, out, _ = run(
        capsys, "zset", "thm3-test", "--identity", "BB(0;10;1;1)", "--candidate", "BB(0;;1;1)"
    )
    assert code == 0
    doc = json.loads(out)
    assert not doc["unit"] and not doc["translate"] and doc["agree"]


# ---------------------------------------------------------------------------
# qcuts


def test_qcuts_verify(capsys):
    code, out, _ = run(capsys, "qcuts", "verify", "--trials", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["structure"] == "Z^2" and doc["decomposition_failures"] == 0
    code, out, _ = run(capsys, "qcuts", "verify", "--generators", "1", "--trials", "20")
    assert code == 0 and json.loads(out)["structure"] == "Z"
    code, _, err = run(capsys, "qcuts", "verify", "--generators", "sqrt3")
    assert code == 2 and "cannot parse" in err


def test_qcuts_witness(capsys):
    code, out, _ = run(capsys, "qcuts", "witness", "--trials", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["separated"] == 20 and doc["idempotent_unique_ok"] is True


@pytest.mark.parametrize("endpoint", ["1/0", "0/0", "1+1/0*sqrt2", "-1/00-sqrt2"])
def test_qcuts_zero_denominator_is_usage_error(capsys, endpoint):
    code, out, err = run(capsys, "qcuts", "verify", "--generators", f"1,{endpoint}")
    assert (code, out) == (2, "")
    assert err == f"error: zero denominator in endpoint {endpoint!r}\n"


def _defaults(*argv):
    return vars(build_parser().parse_args(list(argv)))


_CAPPED = [
    # argv at cap + 1, expected message, the option's default under its cap
    (
        ["verify", "zsets-thm3", "--trials", str(suites.MAX_TRIALS + 1)],
        f"trials {suites.MAX_TRIALS + 1} exceeds cap {suites.MAX_TRIALS}",
        _defaults("verify", "zsets-thm3")["trials"] < suites.MAX_TRIALS,
    ),
    (
        ["verify", "qcuts-thm4", "--trials", str(suites.MAX_TRIALS + 1)],
        f"trials {suites.MAX_TRIALS + 1} exceeds cap {suites.MAX_TRIALS}",
        _defaults("verify", "qcuts-thm4")["trials"] < suites.MAX_TRIALS,
    ),
    (
        ["qcuts", "verify", "--trials", str(qcuts.MAX_TRIALS + 1)],
        f"trials {qcuts.MAX_TRIALS + 1} exceeds cap {qcuts.MAX_TRIALS}",
        _defaults("qcuts", "verify")["trials"] < qcuts.MAX_TRIALS,
    ),
    (
        ["qcuts", "witness", "--trials", str(qcuts.MAX_TRIALS + 1)],
        f"trials {qcuts.MAX_TRIALS + 1} exceeds cap {qcuts.MAX_TRIALS}",
        _defaults("qcuts", "witness")["trials"] < qcuts.MAX_TRIALS,
    ),
    (
        ["qcuts", "verify", "--generators", ",".join(["1"] * (qcuts.MAX_GENERATORS + 1))],
        f"generator count {qcuts.MAX_GENERATORS + 1} exceeds cap {qcuts.MAX_GENERATORS}",
        len(_defaults("qcuts", "verify")["generators"].split(",")) < qcuts.MAX_GENERATORS,
    ),
]


@pytest.mark.parametrize(
    "argv, message, default_below_cap",
    _CAPPED,
    ids=["verify-zsets", "verify-qcuts", "qcuts-verify", "qcuts-witness", "generators"],
)
def test_trial_and_generator_caps_refuse_promptly(argv, message, default_below_cap):
    # In a subprocess with a timeout, so a regression fails instead of hanging;
    # main itself is timed, without the interpreter's start-up.
    code = (
        "import sys, time\n"
        "from powergroups.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main({argv!r})\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 2 and proc.stderr == f"error: {message}\n"
    assert float(proc.stdout) < 1.0
    assert default_below_cap


# ---------------------------------------------------------------------------
# plumbing


def test_main_builds_the_parser_once(capsys, monkeypatch):
    import argparse

    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "catalog", "list")[0] == 0
    after_first = len(built)
    assert run(capsys, "enum", "--group", "C2")[0] == 0
    assert len(built) == after_first
    assert built.count("powergroups") <= 1


def test_help_and_missing_verb():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "powergroups.cli", "catalog", "list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "trivial" in proc.stdout
