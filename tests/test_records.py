"""Census records: construction, JSON round trips, atomic file IO."""

import json
import os

import pytest

from powergroups.errors import CapExceededError
from powergroups.groups import group_from_name
from powergroups.search import all_power_groups
from powergroups.suites import THM2_GROUPS
from powergroups.records import (
    build_census,
    census_record,
    read_records,
    record_from_json,
    record_to_json,
    write_records,
    write_text_atomic,
)

S3 = group_from_name("S3")


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
        (census_record(f, name) for f in all_power_groups(g)), key=lambda r: r.canonical_key
    )
    assert lattice == [record_to_json(r) for r in searched]


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
    fresh = [census_record(f, "D6") for f in lattice_power_groups(g, max_order=12)]
    assert records == sorted(fresh, key=lambda r: r.canonical_key)
