"""Census records: construction, JSON round trips, atomic file IO."""

import json
import os
import stat

import pytest

import powergroups.records as records_module
from powergroups.classify import NotSubquotient
from powergroups.cli import CATALOG_NAMES, main
from powergroups.errors import CapExceededError
from powergroups.groups import group_from_name, load_table_file
from powergroups.iso import fingerprint
from powergroups.search import all_power_groups
from powergroups.suites import THM2_GROUPS
from powergroups.records import (
    _record,
    build_census,
    census_lines,
    census_rows,
    read_records,
    record_from_json,
    record_to_json,
    write_records,
    write_text_atomic,
)

S3 = group_from_name("S3")


@pytest.mark.parametrize("name", ("D4", "S4"))
def test_census_wraps_no_family_member_in_a_subset(name, monkeypatch):
    # Family members are plain int masks: every family the census records
    # holds its members, and names its identity, as ints over its carrier.
    seen = []

    def recording(fam, label, fp):
        seen.append(fam)
        return _record(fam, label, fp)

    monkeypatch.setattr(records_module, "_record", recording)
    g = group_from_name(name)
    records = build_census(g, name, max_order=24)
    assert len(records) == {"D4": 30, "S4": 93}[name]
    assert len(seen) == len(records)
    for fam in seen:
        assert fam.parent is g
        assert all(type(m) is int for m in fam.elements)
        assert type(fam.identity) is int


def test_build_census_shape():
    records = build_census(S3, "S3")
    assert len(records) == 12
    keys = [r.canonical_key for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.group == "S3"
        assert r.subquotient
        assert r.identity_subgroup and r.inverse_closed and r.partition_union_subgroup
        assert r.kernel == r.identity  # realized as cosets of the identity member
        assert r.witness is None
        assert r.order == len(r.family)
        assert set(r.identity) <= set(r.carrier)
        assert r.fingerprint.order == r.order


def test_census_is_deterministic_and_parallel_safe():
    a = [record_to_json(r) for r in build_census(S3, "S3")]
    b = [record_to_json(r) for r in build_census(S3, "S3")]
    assert a == b


@pytest.mark.parametrize("name", THM2_GROUPS + ("D6", "C2xC6"))
def test_census_matches_search_route_byte_for_byte(name):
    # The census lists families from the subgroup lattice; the idempotent
    # search finds them independently.  Both routes must print the same lines.
    g = group_from_name(name)
    lattice = [record_to_json(r) for r in build_census(g, name)]
    searched = sorted(
        (_record(f, name, fingerprint(f.abstract)) for f in all_power_groups(g)),
        key=lambda r: r.canonical_key,
    )
    assert lattice == [record_to_json(r) for r in searched]


# The carriers of the benchmark's census workload (perfbench/workloads.py).
CENSUS_CARRIERS = (
    "C8", "D4", "Q8", "C2xC4", "V4xC2", "C9", "C3xC3", "D5", "C10", "C11",
    "C12", "C2xC6", "D6", "C13", "D7", "C14", "C15", "C16",
)


def _assert_lines_match_records(g, label, max_order=24):
    # enum writes census_lines; record_to_json of build_census is the reference.
    records = build_census(g, label, max_order=max_order)
    flagged = list(census_lines(g, label, census_rows(g, max_order=max_order)))
    assert [line for _, line in flagged] == [record_to_json(r) + "\n" for r in records]
    assert [sub for sub, _ in flagged] == [r.subquotient for r in records]
    return records


@pytest.mark.parametrize("name", sorted(set(CATALOG_NAMES) | set(CENSUS_CARRIERS)))
def test_census_lines_are_the_record_json(name):
    _assert_lines_match_records(group_from_name(name), name)


@pytest.mark.parametrize("stem", ['quo"te', "back\\slash", "caf\u00e9\u2603", "ctrl\x01"])
def test_enum_escapes_the_table_label(tmp_path, capsys, stem):
    g = group_from_name("D4")
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps({"order": g.order, "table": [list(row) for row in g.table]}))
    assert main(["enum", "--table", str(path)]) == 0
    out = capsys.readouterr().out
    t = load_table_file(str(path))
    assert t.name == stem
    assert out == "".join(record_to_json(r) + "\n" for r in build_census(t, stem))
    assert json.loads(out.splitlines()[0])["group"] == stem
    _assert_lines_match_records(t, stem)


def test_census_lines_match_unrealized_records(monkeypatch):
    # Every finite family is a subquotient, so the null carrier and kernel,
    # the witness text and the false flags are reached by patching the
    # classification that _record and census_lines share.
    real = records_module.match_subquotient
    witness = 'family_not_coset_set "quoted" \\ caf\u00e9'

    def patched(fam):
        if fam.elements[0] % 3 == 0:
            return NotSubquotient(witness, "patched")
        return real(fam)

    monkeypatch.setattr(records_module, "match_subquotient", patched)
    monkeypatch.setattr(records_module, "check_inverse_closure", lambda fam: fam.order % 2 == 0)
    monkeypatch.setattr(records_module, "check_identity_subgroup", lambda fam: fam.order % 3 == 0)
    monkeypatch.setattr(records_module, "check_partition_union_subgroup", lambda fam: fam.order % 4 == 0)
    records = _assert_lines_match_records(group_from_name("S4"), "S4")
    missed = [r for r in records if not r.subquotient]
    assert 0 < len(missed) < len(records)
    assert all(r.carrier is None and r.kernel is None and r.witness == witness for r in missed)
    for flag in ("identity_subgroup", "inverse_closed", "partition_union_subgroup"):
        assert {getattr(r, flag) for r in records} == {False, True}


def test_record_json_round_trip():
    for name in ("S3", "klein4"):
        g = group_from_name(name)
        for r in build_census(g, name):
            line = record_to_json(r)
            back = record_from_json(line)
            assert back == r
            assert record_to_json(back) == line
            doc = json.loads(line)
            assert doc["group"] == name


def test_record_json_is_compact_and_sorted():
    line = record_to_json(build_census(S3, "S3")[0])
    assert ": " not in line and ", " not in line
    doc = json.loads(line)
    assert list(doc) == sorted(doc)


def test_record_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        record_from_json("{not json")


def test_write_and_read_records(tmp_path):
    path = tmp_path / "census.jsonl"
    records = build_census(S3, "S3")
    write_records(str(path), records)
    assert read_records(str(path)) == records
    text = path.read_text()
    assert text.count("\n") == len(records)


def test_write_records_is_atomic_on_failure(tmp_path):
    path = tmp_path / "census.jsonl"
    records = build_census(S3, "S3")

    def exploding():
        yield records[0]
        raise RuntimeError("mid-stream failure")

    with pytest.raises(RuntimeError):
        write_records(str(path), exploding())
    assert not path.exists()
    assert os.listdir(tmp_path) == []  # no stray temp file either


def test_build_census_respects_cap():
    with pytest.raises(CapExceededError):
        build_census(group_from_name("S4"), "S4")


def test_write_text_atomic_syncs_before_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd)))
    monkeypatch.setattr(os, "replace", lambda a, b: (events.append("replace"), real_replace(a, b)))
    path = tmp_path / "out.txt"
    write_text_atomic(str(path), ["first ", "second\n"])
    assert events == ["fsync", "replace"]
    assert path.read_text() == "first second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_atomic_names_the_requested_path(tmp_path, capsys):
    # The temporary file is an implementation detail: a missing directory or
    # a directory as the target is reported at the path the caller gave.
    missing = str(tmp_path / "missing_dir" / "x.jsonl")
    with pytest.raises(FileNotFoundError) as info:
        write_text_atomic(missing, ["x\n"])
    assert info.value.filename == missing
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_text_atomic(str(tmp_path / "d"), ["x\n"])
    assert info.value.filename == str(tmp_path / "d") and info.value.filename2 is None
    assert sorted(os.listdir(tmp_path)) == ["d"] and os.listdir(tmp_path / "d") == []
    for verb in ("enum", "subquotients"):
        assert main([verb, "--group", "S3", "--out", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_write_text_atomic_gives_a_new_file_the_umask_mode(tmp_path, umask_022):
    path = tmp_path / "new.jsonl"
    write_text_atomic(str(path), ["x\n"])
    assert _mode(path) == 0o644
    assert os.listdir(tmp_path) == ["new.jsonl"]


def test_write_text_atomic_keeps_an_existing_files_mode(tmp_path, umask_022):
    path = tmp_path / "o.jsonl"
    path.write_text("old\n")
    os.chmod(path, 0o600)
    write_text_atomic(str(path), ["new\n"])
    assert path.read_text() == "new\n"
    assert _mode(path) == 0o600


def test_write_text_atomic_replaces_a_symlinks_target(tmp_path, umask_022):
    real = tmp_path / "real.jsonl"
    real.write_text("stale\n")
    os.chmod(real, 0o600)
    link = tmp_path / "o.jsonl"
    link.symlink_to("real.jsonl")
    write_text_atomic(str(link), ["fresh\n"])
    assert os.readlink(link) == "real.jsonl"
    assert real.read_text() == "fresh\n"
    assert _mode(real) == 0o600
    assert sorted(os.listdir(tmp_path)) == ["o.jsonl", "real.jsonl"]


def test_carriers_are_freed_without_the_cycle_collector():
    # With the collector off, a carrier dies with its last reference: the
    # subgroups, quotients and tables it caches do not refer back to it, and
    # the pairs listed over it are plain masks.
    import gc
    import weakref

    from powergroups.classify import enumerate_subquotients

    gc.collect()
    gc.disable()
    try:
        g = group_from_name("S4")
        pairs = enumerate_subquotients(g)
        ref = weakref.ref(g)
        del g
        assert ref() is None and len(pairs) == 93
        g = group_from_name("S4")
        records = build_census(g, "S4", max_order=24)
        ref = weakref.ref(g)
        del g
        assert ref() is None and len(records) == 93
    finally:
        gc.enable()


def test_census_fingerprints_each_distinct_table_once(monkeypatch):
    import powergroups.records as records_module
    from powergroups.classify import lattice_power_groups

    calls = []
    real = records_module.fingerprint

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(records_module, "fingerprint", counting)
    g = group_from_name("D6")
    records = build_census(g, "D6", max_order=12)
    distinct = {f.abstract_table: f.abstract for f in lattice_power_groups(g, max_order=12)}
    assert len(records) == 49 and len(calls) == len(distinct) < len(records)
    assert sorted(map(id, calls)) == sorted(map(id, distinct.values()))
    # Each record still carries its own family's fingerprint.
    fresh = [
        _record(f, "D6", fingerprint(f.abstract))
        for f in lattice_power_groups(g, max_order=12)
    ]
    assert records == sorted(fresh, key=lambda r: r.canonical_key)
