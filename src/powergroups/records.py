"""Census records: one JSON line per family, byte-stable across runs."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Optional

from .classify import (
    NotSubquotient,
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


def _record(fam: PowerGroupFamily, label: str, fp: GroupFingerprint) -> CensusRecord:
    """Classify one family into its record; ``label`` names the carrier and
    ``fp`` is the fingerprint of the family's abstract group."""
    verdict = match_subquotient(fam)
    missed = isinstance(verdict, NotSubquotient)
    indices = fam.parent.members_of
    return CensusRecord(
        group=label,
        order=fam.order,
        family=tuple(map(indices, fam.elements)),
        identity=indices(fam.identity),
        subquotient=not missed,
        identity_subgroup=check_identity_subgroup(fam),
        inverse_closed=check_inverse_closure(fam),
        partition_union_subgroup=check_partition_union_subgroup(fam),
        fingerprint=fp,
        carrier=None if missed else indices(verdict.carrier),
        kernel=None if missed else indices(verdict.kernel),
        witness=verdict.condition if missed else None,
    )


def build_census(
    g: FiniteGroup, label: str, *, max_order: int = SEARCH_CAP
) -> list[CensusRecord]:
    """One record per subset family over g forming a group, sorted by canonical_key.

    The families come from the subgroup lattice, one coset family H/N per
    pair (H, N normal in H).  Every record is still classified from the
    family alone, so ``subquotient`` re-derives (H, N) independently.  The
    idempotent search (all_power_groups) is the oracle for this list.
    Raises CapExceededError when g's order exceeds ``max_order``.
    """
    # Families with equal tables share one abstract group, fingerprinted once.
    fps: dict[tuple[tuple[int, ...], ...], GroupFingerprint] = {}
    out = []
    for fam in lattice_power_groups(g, max_order=max_order):
        fp = fps.get(fam.abstract_table)
        if fp is None:
            fp = fps[fam.abstract_table] = fingerprint(fam.abstract)
        out.append(_record(fam, label, fp))
    out.sort(key=lambda r: r.canonical_key)
    return out


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
