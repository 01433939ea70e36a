"""Fuzzed parsers: on any input each returns a value or raises a ValueError.

The CLI maps ValueError to exit 2 (bad input) and anything else to exit 1
(a bug), so a parser that lets another exception escape, or hangs, turns a
typo into a crash report.  Each property runs under a deadline.
"""

import json
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from powergroups.groups import FiniteGroup, load_table_file
from powergroups.qcuts import QuadExt, parse_endpoint
from powergroups.zsets import zset_from_text, zset_to_text

FUZZ = settings(max_examples=200, deadline=timedelta(seconds=1))


def _value_or_value_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


# Near-miss texts reach the branches past the regular expressions, which
# arbitrary text almost never does.
_NUMBER = st.from_regex(r"\A-?[0-9]{1,4}(/[0-9]{1,3})?\Z")
_BITS = st.from_regex(r"\A[01]{0,6}\Z")
_ZSET_TEXT = st.one_of(
    st.text(),
    st.builds(
        "B{}({};{};{};{})".format,
        st.sampled_from("BAC"),
        st.integers(-10**6, 10**6),
        _BITS,
        st.integers(0, 8),
        _BITS,
    ),
    st.builds(
        "TS({};{})".format,
        st.one_of(st.integers(0, 10**15), st.sampled_from([10**30, 2**64])),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=6).map(
            lambda residues: ",".join(map(str, residues))
        ),
    ),
)
_ENDPOINT_TEXT = st.one_of(
    st.text(),
    st.builds(
        "{}{}{}sqrt2".format,
        st.one_of(st.just(""), _NUMBER),
        st.sampled_from(["", "+", "-"]),
        st.one_of(st.just(""), _NUMBER.map(lambda n: n.lstrip("-") + "*")),
    ),
    _NUMBER,
)


@FUZZ
@given(text=_ZSET_TEXT)
def test_zset_from_text_returns_a_set_or_raises_value_error(text):
    s = _value_or_value_error(zset_from_text, text)
    if s is not None:
        assert zset_from_text(zset_to_text(s)) == s


@FUZZ
@given(text=_ENDPOINT_TEXT)
def test_parse_endpoint_returns_an_endpoint_or_raises_value_error(text):
    e = _value_or_value_error(parse_endpoint, text)
    if e is not None:
        assert isinstance(e, QuadExt) and parse_endpoint(str(e)) == e


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=30,
)
_TABLE_DOC = st.one_of(
    _JSON,
    st.fixed_dictionaries({"order": _JSON, "table": _JSON}),
    st.integers(1, 4).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "order": st.just(n),
                "table": st.lists(
                    st.one_of(st.lists(st.integers(-1, n), min_size=n, max_size=n), _JSON),
                    min_size=n,
                    max_size=n,
                ),
            }
        )
    ),
)


def _load(tmp_path_factory, data: bytes):
    path = tmp_path_factory.mktemp("fuzz") / "table.json"
    path.write_bytes(data)
    return _value_or_value_error(load_table_file, str(path))


@FUZZ
@given(doc=_TABLE_DOC)
def test_load_table_file_on_json_returns_a_group_or_raises_value_error(tmp_path_factory, doc):
    g = _load(tmp_path_factory, json.dumps(doc).encode())
    assert g is None or isinstance(g, FiniteGroup)


@FUZZ
@given(data=st.one_of(st.text().map(str.encode), st.binary()))
def test_load_table_file_on_raw_bytes_returns_a_group_or_raises_value_error(tmp_path_factory, data):
    g = _load(tmp_path_factory, data)
    assert g is None or isinstance(g, FiniteGroup)


def test_load_table_file_refuses_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert _value_or_value_error(load_table_file, str(path)) is None
