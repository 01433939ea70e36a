"""Census records: one JSON line per family, byte-stable across runs."""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .classify import (
    NotSubquotient,
    SubquotientDescriptor,
    check_identity_subgroup,
    check_inverse_closure,
    check_partition_union_subgroup,
    lattice_power_groups,
    match_subquotient,
)
from .groups import SEARCH_CAP, FiniteGroup, PowerGroupFamily
from .iso import GroupFingerprint, fingerprint

__all__ = [
    "CensusRecord",
    "build_census",
    "census_lines",
    "census_rows",
    "read_records",
    "record_from_json",
    "record_to_json",
    "write_records",
    "write_text_atomic",
]


@dataclass(frozen=True)
class CensusRecord:
    """One power group over one carrier, with its classification flags.

    ``family`` lists each member as a sorted tuple of element indices, the
    members themselves ordered by their bitmask value, which is the canonical
    order everywhere in this package.  ``carrier``/``kernel`` hold the (H, N)
    realization when the family is a subquotient; ``witness`` names the first
    failed condition when it is not.
    """

    group: str
    order: int
    family: tuple[tuple[int, ...], ...]
    identity: tuple[int, ...]
    subquotient: bool
    identity_subgroup: bool
    inverse_closed: bool
    partition_union_subgroup: bool
    fingerprint: GroupFingerprint
    carrier: Optional[tuple[int, ...]]
    kernel: Optional[tuple[int, ...]]
    witness: Optional[str]

    @property
    def canonical_key(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return (self.order, self.family)


def _classify(
    fam: PowerGroupFamily,
) -> tuple[Union[SubquotientDescriptor, NotSubquotient], bool, bool, bool]:
    """The family's subquotient verdict and its three flags: identity
    subgroup, inverse closed, partition union subgroup."""
    return (
        match_subquotient(fam),
        check_identity_subgroup(fam),
        check_inverse_closure(fam),
        check_partition_union_subgroup(fam),
    )


def _record(fam: PowerGroupFamily, label: str, fp: GroupFingerprint) -> CensusRecord:
    """Classify one family into its record; ``label`` names the carrier and
    ``fp`` is the fingerprint of the family's abstract group."""
    verdict, identity_subgroup, inverse_closed, partition_union_subgroup = _classify(fam)
    missed = isinstance(verdict, NotSubquotient)
    indices = fam.parent.members_of
    return CensusRecord(
        group=label,
        order=fam.order,
        family=tuple(map(indices, fam.elements)),
        identity=indices(fam.identity),
        subquotient=not missed,
        identity_subgroup=identity_subgroup,
        inverse_closed=inverse_closed,
        partition_union_subgroup=partition_union_subgroup,
        fingerprint=fp,
        carrier=None if missed else indices(verdict.carrier),
        kernel=None if missed else indices(verdict.kernel),
        witness=verdict.condition if missed else None,
    )


def census_rows(
    g: FiniteGroup, *, max_order: int = SEARCH_CAP
) -> list[tuple[PowerGroupFamily, GroupFingerprint]]:
    """Each subset family over g forming a group, with the fingerprint of
    its abstract group, sorted once by the record key, canonical_key.
    Families with equal tables share one fingerprint.

    The families come from the subgroup lattice (lattice_power_groups), one
    coset family H/N per pair (H, N normal in H).  The idempotent search
    (all_power_groups) is the oracle for this list.  Raises
    CapExceededError when g's order exceeds ``max_order``.
    """
    members = g.members_of
    fams = lattice_power_groups(g, max_order=max_order)
    fams.sort(key=lambda f: (f.order, tuple(map(members, f.elements))))
    fps: dict[tuple[tuple[int, ...], ...], GroupFingerprint] = {}
    rows = []
    for fam in fams:
        fp = fps.get(fam.abstract_table)
        if fp is None:
            fp = fps[fam.abstract_table] = fingerprint(fam.abstract)
        rows.append((fam, fp))
    return rows


def build_census(
    g: FiniteGroup, label: str, *, max_order: int = SEARCH_CAP
) -> list[CensusRecord]:
    """One record per row of census_rows(g), in its order.  Every record is
    classified from the family alone, so ``subquotient`` re-derives (H, N)
    independently of the lattice."""
    return [_record(fam, label, fp) for fam, fp in census_rows(g, max_order=max_order)]


_JSON_BOOL = ("false", "true")


def census_lines(
    g: FiniteGroup, label: str, rows: Iterable[tuple[PowerGroupFamily, GroupFingerprint]]
) -> Iterator[tuple[bool, str]]:
    """Each row of census_rows(g), in order, as the record_to_json line of
    its record plus a newline, with the record's ``subquotient`` flag.

    The lines are written from text pieces, keys in sorted order: each mask
    (member, carrier or kernel) and each fingerprint is formatted once per
    call.  Each family is classified by _classify, as _record does."""
    text = functools.cache(lambda mask: "[" + ",".join(map(str, g.members_of(mask))) + "]")
    fp_text = functools.cache(record_to_json)
    group = json.dumps(label)
    for fam, fp in rows:
        verdict, identity_subgroup, inverse_closed, partition_union_subgroup = _classify(fam)
        missed = isinstance(verdict, NotSubquotient)
        yield not missed, (
            f'{{"carrier":{"null" if missed else text(verdict.carrier)},'
            f'"family":[{",".join(map(text, fam.elements))}],'
            f'"fingerprint":{fp_text(fp)},"group":{group},"identity":{text(fam.identity)},'
            f'"identity_subgroup":{_JSON_BOOL[identity_subgroup]},'
            f'"inverse_closed":{_JSON_BOOL[inverse_closed]},'
            f'"kernel":{"null" if missed else text(verdict.kernel)},"order":{fam.order},'
            f'"partition_union_subgroup":{_JSON_BOOL[partition_union_subgroup]},'
            f'"subquotient":{_JSON_BOOL[not missed]},'
            f'"witness":{json.dumps(verdict.condition) if missed else "null"}}}\n'
        )


# Record and fingerprint fields are the JSON keys; tuples encode as lists.
record_to_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=vars).encode


def record_from_json(line: str) -> CensusRecord:
    d = json.loads(line)
    fp = d["fingerprint"]
    return CensusRecord(
        group=d["group"],
        order=d["order"],
        family=tuple(tuple(m) for m in d["family"]),
        identity=tuple(d["identity"]),
        subquotient=d["subquotient"],
        identity_subgroup=d["identity_subgroup"],
        inverse_closed=d["inverse_closed"],
        partition_union_subgroup=d["partition_union_subgroup"],
        fingerprint=GroupFingerprint(
            order=fp["order"],
            abelian=fp["abelian"],
            element_orders=tuple((o, n) for o, n in fp["element_orders"]),
            center_size=fp["center_size"],
            conjugacy_class_sizes=tuple(fp["conjugacy_class_sizes"]),
        ),
        carrier=None if d["carrier"] is None else tuple(d["carrier"]),
        kernel=None if d["kernel"] is None else tuple(d["kernel"]),
        witness=d["witness"],
    )


def write_text_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to path atomically: a killed or failed run leaves the
    old file (or none), never a partial one.  The data reaches the disk
    before the temporary file is renamed over path.

    As with ``open(path, "w")``, a symlink is followed and its target
    replaced, an existing file keeps its permission bits, and a new file gets
    0o666 & ~umask.  The owner is not carried over: the replaced file belongs
    to the user who wrote it.  An OSError from creating the temporary file or
    renaming it names path, as given, not the temporary file."""
    import tempfile  # only --out writes a file, so the CLI does not load it at startup

    target, path = path, os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".out-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, target) from None
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates the file 0600.
            os.fchmod(fd, mode)
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, target) from None
    except BaseException:
        os.unlink(tmp)
        raise


def write_records(path: str, records: Iterable[CensusRecord]) -> None:
    """Write one JSON line per record, atomically (see write_text_atomic)."""
    write_text_atomic(path, (record_to_json(r) + "\n" for r in records))


def read_records(path: str) -> list[CensusRecord]:
    with open(path) as fh:
        return [record_from_json(line) for line in fh if line.strip()]
