"""Command-line contract: verbs, output shapes, exit codes 0/1/2."""

import dataclasses
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from powergroups import qcuts, suites, zsets
from powergroups.cli import SUITE_NAMES, build_parser, main
from powergroups.errors import InternalFaultError
from powergroups.groups import group_from_name, subset
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


@pytest.mark.parametrize("cmd", ["enum", "subquotients"])
def test_group_and_table_together_are_refused(capsys, tmp_path, cmd):
    # The table file is never read, so a missing one cannot be silently ignored.
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, cmd, "--group", "C2", "--table", str(missing))
    assert (code, out) == (2, "")
    assert err == "error: give --group NAME or --table PATH, not both\n"


def test_enum_from_table_file(capsys, tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(
        json.dumps({"order": 3, "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]})
    )
    code, out, err = run(capsys, "enum", "--table", str(path))
    assert code == 0 and len(json_lines(out)) == 3 and "group=c3" in err


def test_oversized_table_file_is_refused_before_parsing(capsys, tmp_path, monkeypatch):
    import time

    import powergroups.groups as groups_module

    def no_parse(text):
        raise AssertionError("the table file was parsed")

    cap = groups_module.MAX_TABLE_BYTES
    path = tmp_path / "big.json"
    path.write_bytes(b'{"order":1,"table":[[0]]}'.ljust(4 * cap))
    monkeypatch.setattr(groups_module, "json", SimpleNamespace(loads=no_parse))
    start = time.perf_counter()
    code, out, err = run(capsys, "enum", "--table", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: table file bytes {4 * cap} exceeds cap {cap}\n"
    # A file at the cap is read and parsed.
    path.write_bytes(b'{"order":1,"table":[[0]]}'.ljust(cap))
    monkeypatch.undo()
    code, out, err = run(capsys, "enum", "--table", str(path))
    assert code == 0 and len(json_lines(out)) == 1


def test_table_file_larger_than_fstat_says_is_read_to_the_cap(capsys, tmp_path, monkeypatch):
    # The first read is sized from fstat.  A pipe reports size 0, and a
    # growing file may hold more than fstat said: such a file is read on up
    # to the cap, so it still loads, and one over the cap is still refused
    # before it is parsed.
    import powergroups.groups as groups_module

    cap = groups_module.MAX_TABLE_BYTES
    path = tmp_path / "c3.json"
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"order": 3, "table": table}))
    want = run(capsys, "enum", "--table", str(path))
    assert want[0] == 0 and len(json_lines(want[1])) == 3
    fake_os = SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=0), path=os.path)
    monkeypatch.setattr(groups_module, "os", fake_os)
    assert run(capsys, "enum", "--table", str(path)) == want
    # A file at the cap loads; one byte more is refused, unparsed.
    path.write_bytes(b'{"order":1,"table":[[0]]}'.ljust(cap))
    code, out, err = run(capsys, "enum", "--table", str(path))
    assert code == 0 and len(json_lines(out)) == 1

    def no_parse(text):
        raise AssertionError("the table file was parsed")

    monkeypatch.setattr(groups_module, "json", SimpleNamespace(loads=no_parse))
    path.write_bytes(b'{"order":1,"table":[[0]]}'.ljust(cap + 1))
    assert run(capsys, "enum", "--table", str(path)) == (
        2, "", f"error: table file bytes {cap + 1} exceeds cap {cap}\n"
    )


def test_out_files_get_the_mode_open_would_give(tmp_path):
    # The atomic writer renames a private temporary file over the target; the
    # result must still follow the umask like open(path, "w").
    code = (
        "import os, sys\n"
        "from powergroups import cli\n"
        "for umask, name in ((0o022, 'a'), (0o027, 'b')):\n"
        "    os.umask(umask)\n"
        "    path = os.path.join(sys.argv[1], name + '.jsonl')\n"
        "    assert cli.main(['enum', '--group', 'S3', '--out', path]) == 0\n"
        "    print(oct(os.stat(path).st_mode & 0o777))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert [w for w in proc.stdout.split() if w.startswith("0o")] == ["0o644", "0o640"]
    assert sorted(os.listdir(tmp_path)) == ["a.jsonl", "b.jsonl"]


def test_subquotients_listing(capsys):
    code, out, err = run(capsys, "subquotients", "--group", "S3")
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 12 and "subquotients=12" in err
    for line in lines:
        assert set(line["kernel"]) <= set(line["carrier"])
        assert line["order"] == len(line["family"])


def test_subquotients_lines_are_sorted_key_json(capsys, tmp_path):
    # Lines are written from per-mask text; each must equal the compact
    # sorted-key json.dumps of its payload, also for a label that JSON escapes
    # (a quote, a backslash and a non-ASCII letter, from the file name).
    from powergroups.classify import enumerate_subquotients
    from powergroups.groups import iter_bits, load_table_file

    g = group_from_name("S4")
    path = tmp_path / 'q"\\é.json'
    path.write_text(json.dumps({"order": g.order, "table": g.table}), encoding="utf-8")
    label = 'q"\\é'
    code, out, err = run(capsys, "subquotients", "--table", str(path), "--max-order", "24")
    assert code == 0 and err == f"group={label} subquotients=93\n"
    want = [
        json.dumps(
            {
                "group": label,
                "carrier": list(iter_bits(desc.carrier)),
                "kernel": list(iter_bits(desc.kernel)),
                "order": len(cosets),
                "family": [list(iter_bits(a)) for a in cosets],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for desc, cosets in enumerate_subquotients(load_table_file(str(path)))
    ]
    assert out.splitlines() == want and out.endswith("\n")
    assert '"group":"q\\"\\\\\\u00e9"' in out


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


@pytest.mark.parametrize("window", [0, 1, 2, 8, 16, 40, 64])
def test_verify_zsets_small_windows_pass(capsys, window):
    # The sum oracle's pad follows the operands (zsets.minkowski_pad), not the
    # window, so narrow windows agree as well as wide ones.
    for seed in range(5):
        argv = ["verify", "zsets-thm3", "--trials", "100", "--window", str(window), "--seed", str(seed)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and all(line["ok"] for line in json_lines(out)), argv


def test_verify_zsets_once_failing_windows_pass(capsys):
    # Both exited 1 ("1 mismatches") while the oracle was padded by half the
    # window only.
    assert run(capsys, "verify", "zsets-thm3", "--window", "64")[0] == 0
    assert run(capsys, "verify", "zsets-thm3", "--trials", "50", "--window", "40", "--seed", "3")[0] == 0


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
    assert "{" + ",".join(sorted(suites.SUITES)) + "}" in capsys.readouterr().err


def test_verify_choices_name_every_suite():
    # cli lists the suite names itself so that building the parser does not
    # import suites (and through it zsets and qcuts).
    assert SUITE_NAMES == tuple(sorted(suites.SUITES))


def test_verify_reports_failures_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "powergroups.suites.run_suite",
        lambda *a, **k: [SuiteCheck("fake", "forced failure", False, "details")],
    )
    code, out, err = run(capsys, "verify", "oracle-equivalence")
    assert code == 1
    assert json_lines(out)[0]["ok"] is False
    assert "failed=1" in err


def _verdict_flipped(real):
    def flipped(e, a):
        v = real(e, a)
        return dataclasses.replace(v, translate_ok=not v.unit_ok)

    return flipped


@pytest.mark.parametrize(
    "name, fake, failing, detail",
    [
        ("minkowski_window_sum", lambda real: lambda *a, **kw: real(*a, **kw) ^ 1, [0], "5 mismatches"),
        ("theorem3_unit_test", _verdict_flipped, [1, 2], "5 disagreements"),
    ],
)
def test_zsets_suite_reports_a_disagreeing_oracle(capsys, monkeypatch, name, fake, failing, detail):
    # The suite compares two independent answers; when one of them is wrong,
    # the checks that read it print "ok":false and the command exits 1.
    monkeypatch.setattr(zsets, name, fake(getattr(zsets, name)))
    code, out, err = run(capsys, "verify", "zsets-thm3", "--trials", "5")
    assert code == 1
    assert [i for i, line in enumerate(out.splitlines()) if '"ok":false' in line] == failing
    assert detail in out and f"failed={len(failing)}" in err


def test_remark1_suite_reports_a_failed_epimorphism_check(capsys, monkeypatch):
    real = suites.coset_group_epimorphism_check
    monkeypatch.setattr(
        suites, "coset_group_epimorphism_check", lambda d: dataclasses.replace(real(d), ok=False)
    )
    code, out, _ = run(capsys, "verify", "remark1-cosets", "--max-order", "2")
    assert code == 1
    lines = json_lines(out)
    assert [line["ok"] for line in lines if line["check"].startswith("C2:")] == [False]
    assert all(line["ok"] for line in lines if line["check"].startswith("integer cosets"))


@pytest.mark.parametrize("fault", ["no-split", "wrong-split", "split-of-a-non-member"])
def test_qcuts_verify_reports_a_wrong_decomposition(capsys, monkeypatch, fault):
    real = qcuts.decompose_member

    def faulty(a, b, x):
        split = real(a, b, x)
        if fault == "no-split":
            return None
        if fault == "wrong-split":
            return split and (split[0], split[1] + 1)  # u + v != x
        return split or (x, 0)

    monkeypatch.setattr(qcuts, "decompose_member", faulty)
    code, out, err = run(capsys, "qcuts", "verify", "--trials", "50")
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert report["decomposition_trials"] == 50 and report["decomposition_failures"] > 0


# ---------------------------------------------------------------------------
# internal faults: explicit checks (kept under python -O), exit 1, no traceback


def _flatten_family_tables(monkeypatch, module):
    """Make every family of order > 1 built through module carry a constant,
    non-group table, as a bug in the table construction would."""
    import powergroups.groups as groups

    real = groups.power_group_family

    def faulty(parent, masks):
        fam = real(parent, masks)
        if fam.order == 1:
            return fam
        zeros = tuple((0,) * fam.order for _ in range(fam.order))
        return dataclasses.replace(fam, abstract_table=zeros)

    monkeypatch.setattr(module, "power_group_family", faulty)


def test_power_group_family_fault_exits_1(capsys, monkeypatch):
    import powergroups.groups as groups

    # Family tables are built from positions, so only the group axioms are
    # checked on them, not validate_cayley's input sanitation.  They are
    # checked under the name "F"; the carrier's own table is left alone.
    real = groups._group_of_table

    def faulty(table, *, name):
        return real(((0,),) if name == "F" else table, name=name)

    monkeypatch.setattr(groups, "_group_of_table", faulty)
    with pytest.raises(InternalFaultError, match="validated as order 1"):
        groups.power_group_family(group_from_name("C2"), [0b01, 0b10])
    code, out, err = run(capsys, "enum", "--group", "C2")
    assert code == 1 and out == ""
    assert err.startswith("error: internal fault:") and "Traceback" not in err


def test_build_coset_group_fault_exits_1(capsys, monkeypatch):
    import powergroups.classify as classify

    _flatten_family_tables(monkeypatch, classify)
    g = group_from_name("C2")
    with pytest.raises(InternalFaultError, match="family table"):
        classify.build_coset_group(g, subset(g, [0]), g.full_mask)
    code, _, err = run(capsys, "verify", "remark1-cosets", "--max-order", "2")
    assert code == 1 and err.startswith("error: internal fault:")


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--group", "C4"],
        ["subquotients", "--group", "C4"],
        ["underlies", "--g1", "C4", "--g2", "C2"],
        ["catalog", "show", "--group", "C4"],
    ],
    ids=" ".join,
)
def test_lattice_fault_exits_1(capsys, monkeypatch, argv):
    # A lattice mask that is no subgroup ({e, x1} of C4) is a fault of the
    # package, not of the input: each command that reads the lattice exits 1.
    import powergroups.groups as groups

    real = groups.subgroup_lattice
    monkeypatch.setattr(groups, "subgroup_lattice", lambda table, identity: real(table, identity) + [0b11])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: internal fault: lattice mask 0x3 is not a subgroup of C4\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["subquotients", "--group", "S3", "--max-order", "24"],
        ["enum", "--group", "S3"],
        ["catalog", "show", "--group", "S3"],
    ],
    ids=" ".join,
)
def test_normal_subgroup_fault_exits_1(capsys, monkeypatch, argv):
    # A normal_subgroups_of that forgets H <= N_G(N) lists pairs such as
    # (S3, C2), whose quotient's blocks inside H do not cover H.  Without the
    # coverage check the listings reported 15 pairs instead of 12, and
    # without the conjugation count catalog show printed 6 normal subgroups
    # of S3, all with exit 0.
    import inspect

    import powergroups.classify as classify
    import powergroups.cli as cli
    import powergroups.groups as groups

    source = inspect.getsource(groups.normal_subgroups_of)
    condition = " and not hmask & ~norm"
    assert source.count(condition) == 1
    namespace = dict(vars(groups))
    exec(source.replace(condition, ""), namespace)
    for module in (classify, cli):
        monkeypatch.setattr(module, "normal_subgroups_of", namespace["normal_subgroups_of"])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    if argv[0] == "catalog":
        assert err == "error: internal fault: 6 normal subgroups of S3 from the normalizers, 3 by conjugation\n"
    else:
        assert err == "error: internal fault: cosets of 0x3 cover 0x3, not 0x3f\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["subquotients", "--group", "S3", "--max-order", "24"],
        ["enum", "--group", "S3"],
    ],
    ids=" ".join,
)
def test_normalizer_fault_exits_1(capsys, monkeypatch, argv):
    # A _normalizer that returns the whole group makes a non-normal C2 of S3
    # the kernel of a quotient over S3.  _coset_family refuses that quotient
    # with a ValueError, which exited 2 (usage error) before the pairs
    # reported it as the package's own fault.
    import inspect

    import powergroups.groups as groups

    source = inspect.getsource(groups._normalizer)
    line = "    return m\n"
    assert source.count(line) == 1
    namespace = dict(vars(groups))
    exec(source.replace(line, "    return g.full_mask\n"), namespace)
    monkeypatch.setattr(groups, "_normalizer", namespace["_normalizer"])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "error: internal fault: normalizer 0x3f of 0x3 gives no quotient: "
        "family not closed: 0x3 is not normal (block 0xc is no right coset)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["subquotients", "--group", "S3", "--max-order", "24"],
        ["enum", "--group", "S3"],
    ],
    ids=" ".join,
)
def test_normalizer_with_an_outside_element_exits_1(capsys, monkeypatch, argv):
    # A _normalizer that adds its least missing element to N_G(N) gives the
    # non-normal C2 = 0x3 of S3 the mask 0x7.  The listing builds no quotient
    # table, so the kernel's coset check must refuse it: the coset 0xc of
    # 0x3 leaves 0x7.
    import inspect

    import powergroups.groups as groups

    source = inspect.getsource(groups._normalizer)
    line = "    return m\n"
    assert source.count(line) == 1
    namespace = dict(vars(groups))
    exec(source.replace(line, "    return m | ~m & (m + 1) & g.full_mask\n"), namespace)
    monkeypatch.setattr(groups, "_normalizer", namespace["_normalizer"])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: internal fault: normalizer 0x7 of 0x3 gives no quotient: coset 0xc of 0x3 leaves 0x7\n"


def test_homomorphism_failure_exits_1(capsys, monkeypatch):
    import powergroups.classify as classify
    import powergroups.suites as suites

    # Families with broken tables reach the epimorphism check unverified.
    def unchecked(g, e, h):
        masks = sorted({g.product_mask(1 << a, e) for a in g.members_of(h)})
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
        "cli.census_lines = broken\n"
        "sys.exit(cli.main(['enum', '--group', 'C2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "KeyError: 'internal'" in proc.stderr


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_enum_fault_partway_through_the_lines_writes_nothing(capsys, monkeypatch, tmp_path, to_file):
    # enum streams its lines into the --out file and joins them for stdout:
    # a fault at the third family leaves the old file, no temporary file and
    # an empty stdout, and exits 1.
    import powergroups.records as records

    real, seen = records._classify, []

    def failing(fam):
        seen.append(fam)
        if len(seen) == 3:
            raise InternalFaultError("classification fault")
        return real(fam)

    monkeypatch.setattr(records, "_classify", failing)
    path = tmp_path / "census.jsonl"
    path.write_text("old\n")
    argv = ["enum", "--group", "S3"] + (["--out", str(path)] if to_file else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: internal fault: classification fault\n")
    assert len(seen) == 3
    assert path.read_text() == "old\n" and os.listdir(tmp_path) == ["census.jsonl"]


def test_zset_sum_self_check_fault_exits_1(capsys, monkeypatch):
    import powergroups.zsets as zsets

    real = zsets.minkowski_window_sum
    monkeypatch.setattr(zsets, "minkowski_window_sum", lambda *a, **kw: real(*a, **kw) ^ 1)
    code, out, err = run(capsys, "zset", "sum", "BB(0;;1;1)", "BB(0;;1;1)")
    assert code == 1 and out == ""
    assert err.startswith("error: internal fault: sum failed windowed self-check")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "a, b, want",
    [("BB(100;;1;1)", "BB(200;;1;1)", "BB(300;;1;1)"), ("BB(300;;1;1)", "BB(400;;1;1)", "BB(700;;1;1)")],
)
def test_zset_sum_of_far_translates_passes_its_self_check(capsys, a, b, want):
    # The self-check window grows with the operands' pad and the result's
    # extent, not with their product, so translates of the naturals pass.
    code, out, err = run(capsys, "zset", "sum", a, b)
    assert (code, err) == (0, "")
    assert json.loads(out)["sum"] == want


@pytest.mark.parametrize(
    "a, b",
    [
        ("BB(100;;1;1)", "BB(200;;1;1)"),
        ("BB(3;101;4;1001)", "BB(-2;11;3;001)"),
        ("BA(5;;3;101)", "BB(0;1;1;0)"),
        ("BA(1;10;2;01)", "BA(0;;5;10001)"),
    ],
)
def test_zset_sum_self_check_catches_a_flipped_bit(capsys, monkeypatch, a, b):
    # A sum that is wrong in one element fails the self-check (exit 1).  The
    # corrupted sum keeps the true one's offset and word, appends 4 * pad
    # periods to its transient and flips the last bit: an element past three
    # pads from 0, outside any window sized by the operands alone.
    real = zsets._sum_bounded_below

    def flipped(x, y):
        r = real(x, y)
        n = len(r.transient) + r.period * 4 * zsets.minkowski_pad(x, y)
        window = zsets.zset_window_mask(r, r.offset, r.offset + n)
        bits = [window >> i & 1 for i in range(n)]
        bits[-1] ^= 1
        return zsets.bounded_below(r.offset, bits, r.period, r.word)

    monkeypatch.setattr(zsets, "_sum_bounded_below", flipped)
    code, out, err = run(capsys, "zset", "sum", a, b)
    assert code == 1 and out == ""
    assert err.startswith("error: internal fault: sum failed windowed self-check")


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


@pytest.mark.parametrize("name", ["C2xxC3", "xC2", "C2xC3x", "C2x x"])
def test_group_names_with_an_empty_factor_are_refused(capsys, name):
    assert run(capsys, "catalog", "show", "--group", name) == (
        2, "", f"error: empty factor in group name {name!r}\n"
    )


def test_group_name_separators_and_the_trivial_group_still_parse(capsys):
    shown = {}
    for name in ("C2xC3", "C2*C3", "c2 x c3", "trivial", "trivialxC2", "V4xC2"):
        code, out, err = run(capsys, "catalog", "show", "--group", name)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        shown[name] = (doc.pop("name"), doc)
    assert shown["C2xC3"][1] == shown["C2*C3"][1] == shown["c2 x c3"][1]
    assert shown["C2xC3"][1]["order"] == 6 and shown["trivial"][1]["order"] == 1
    assert shown["trivialxC2"][1]["order"] == 2 and shown["V4xC2"][1]["subgroups"] == 16


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


def _timed_main(argv):
    """main(argv) in a subprocess with a timeout, so a regression fails instead
    of hanging; stdout is the run time of main alone, without the interpreter's
    start-up."""
    code = (
        "import sys, time\n"
        "from powergroups.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main({argv!r})\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)


_W = zsets.MAX_WINDOW_BITS
_R = zsets.MAX_REPRESENTATIVES
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
    (
        ["verify", "zsets-thm3", "--window", str(suites.MAX_WINDOW + 1)],
        f"window {suites.MAX_WINDOW + 1} exceeds cap {suites.MAX_WINDOW}",
        _defaults("verify", "zsets-thm3")["window"] < suites.MAX_WINDOW,
    ),
    (
        # A window of w lists w // 2 * 2 + 1 members.
        ["zset", "sum", "BB(0;;1;1)", "BB(0;;1;1)", "--window", str(_W)],
        f"window bits {_W + 1} exceeds cap {_W}",
        _defaults("zset", "sum", "a", "b")["window"] < _W,
    ),
    (
        ["zset", "coset-group", "--identity", "BB(0;;1;1)", "--window", str(_R)],
        f"representative count {_R + 1} exceeds cap {_R}",
        _defaults("zset", "coset-group", "--identity", "e")["window"] < _R,
    ),
    (
        # 9901 residues mod the prime 10007 against the 101 of {0, ..., 100}.
        ["zset", "sum", f"TS(10007;{','.join(map(str, range(9901)))})", f"BB(0;{'1' * 101};1;0)"],
        f"residue pair count {101 * 9901} exceeds cap {zsets.MAX_RESIDUES}",
        101 * 9901 == zsets.MAX_RESIDUES + 1,
    ),
]


@pytest.mark.parametrize(
    "argv, message, default_below_cap",
    _CAPPED,
    ids=[
        "verify-zsets", "verify-qcuts", "qcuts-verify", "qcuts-witness", "generators",
        "verify-window", "zset-sum-window", "coset-representatives", "residue-pairs",
    ],
)
def test_trial_and_generator_caps_refuse_promptly(argv, message, default_below_cap):
    proc = _timed_main(argv)
    assert proc.returncode == 2 and proc.stderr == f"error: {message}\n"
    assert float(proc.stdout) < 1.0
    assert default_below_cap


_PERIODS_2999_3001 = ["zset", "sum", f"BB(0;;2999;1{'0' * 2998})", f"BB(0;;3001;1{'0' * 3000})"]
_PROBES = [
    # Each once ran for minutes or more; now each is refused before the work.
    (_PERIODS_2999_3001, f"window bits {2 * 2999 * 3001} exceeds cap {_W}"),
    (
        ["zset", "sum", "BB(0;;1;1)", "BB(0;;1;1)", "--window", "100000000"],
        f"window bits 100000001 exceeds cap {_W}",
    ),
    (
        ["zset", "coset-group", "--identity", "BB(0;;1;1)", "--window", "100000000"],
        f"representative count 100000001 exceeds cap {_R}",
    ),
    (
        ["verify", "zsets-thm3", "--trials", "100000000", "--window", "100000000"],
        f"trials 100000000 exceeds cap {suites.MAX_TRIALS}",
    ),
    (
        ["verify", "zsets-thm3", "--window", "100000000"],
        f"window 100000000 exceeds cap {suites.MAX_WINDOW}",
    ),
    (["qcuts", "verify", "--trials", "100000000"], f"trials 100000000 exceeds cap {qcuts.MAX_TRIALS}"),
    # The sum is TS(1;0) at once; its self-check window spans 4 * (1009 * 1013
    # + 1) bits: the operands' pad is the lcm of their moduli.
    (["zset", "sum", "TS(1009;0)", "TS(1013;0)"], f"window bits 4088472 exceeds cap {_W}"),
    # {0} plus [k + 1, inf) one bit past the text cap; at the cap the default
    # coset group (289 sums of translates) takes about 1-2 s.
    (
        ["zset", "coset-group", "--identity", f"BB(0;1{'0' * (zsets.MAX_TEXT_BITS - 1)};1;1)"],
        f"transient plus period {zsets.MAX_TEXT_BITS + 1} exceeds cap {zsets.MAX_TEXT_BITS}",
    ),
]


@pytest.mark.parametrize(
    "argv, message",
    _PROBES,
    ids=["periods-2999-3001", "sum-window", "coset-window", "verify-both", "verify-window",
         "qcuts-trials", "sum-self-check", "coset-identity-text"],
)
def test_size_probes_refuse_promptly(argv, message):
    proc = _timed_main(argv)
    assert proc.returncode == 2 and proc.stderr == f"error: {message}\n"
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "zsets-thm3", "--trials", "-5"], "trials -5 is negative"),
        (["verify", "zsets-thm3", "--window", "-1"], "window -1 is negative"),
        (["qcuts", "witness", "--trials", "-1"], "trials -1 is negative"),
        (["qcuts", "verify", "--trials", "-1"], "trials -1 is negative"),
        (["zset", "sum", "BB(0;;1;1)", "TS(2;0)", "--window", "-7"], "window bits -7 is negative"),
        (
            ["zset", "coset-group", "--identity", "BB(0;;1;1)", "--window", "-7"],
            "representative count -7 is negative",
        ),
    ],
    ids=["verify-trials", "verify-window", "qcuts-witness", "qcuts-verify", "zset-sum", "coset-group"],
)
def test_negative_sizes_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "zsets-thm3", "--trials", "0"],
        ["verify", "qcuts-thm4", "--trials", "0"],
        ["qcuts", "verify", "--trials", "0"],
        ["qcuts", "witness", "--trials", "0"],
    ],
    ids=" ".join,
)
def test_zero_trials_are_refused(capsys, argv):
    # A run over no trials must not report "0 random sums agree" or "0/0
    # separated" as a pass.
    assert run(capsys, *argv) == (2, "", "error: trials 0 runs no trial (the least is 1)\n")


def test_suites_that_ignore_trials_accept_zero(capsys):
    code, _, err = run(capsys, "verify", "thm2-finite", "--trials", "0", "--max-order", "4")
    assert code == 0 and "failed=0" in err


@pytest.mark.parametrize("max_order", ["-3", "0", "1"])
@pytest.mark.parametrize("suite", ["thm2-finite", "thm1-equivalence", "remark1-cosets"])
def test_finite_suites_refuse_a_max_order_no_carrier_fits(capsys, suite, max_order):
    # A run that checks no carrier must not report checks=0 failed=0 as a pass.
    message = f"max order {max_order} admits no carrier (the smallest has order 2)"
    assert run(capsys, "verify", suite, "--max-order", max_order) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize(
    "argv",
    [[cmd, "--group", "S4", "--max-order", "24"] for cmd in ("enum", "subquotients")],
    ids=" ".join,
)
def test_commands_leave_no_reference_cycle(capsys, argv):
    # Nothing a carrier caches refers back to it, so all a command builds is
    # freed by reference counting: afterwards the cycle collector finds no
    # group or family.
    import gc

    from powergroups.groups import FiniteGroup, PowerGroupFamily

    run(capsys, "catalog", "list")  # builds the parser
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(capsys, *argv)[0] == 0
        gc.collect()
        kinds = (FiniteGroup, PowerGroupFamily)
        cyclic = sorted({type(o).__name__ for o in gc.garbage if isinstance(o, kinds)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic == []


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
