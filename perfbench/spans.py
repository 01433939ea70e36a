"""Spans and counters recorded around the package's public functions.

The tracer replaces each traced function by a wrapper in every
``powergroups`` module namespace that holds it, and each traced method on its
class, then puts the originals back.  Nothing inside the package changes.

Each op opens one root span; every span records its name, start, end, parent
and op.  The hot inner functions run millions of times per pass, so instead of
one span per call they add their call count and time to the function's totals
and to the enclosing span's child time.  A span's self time is its duration
minus the time of its children, hot calls included.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

# (module, attribute) of every traced callable; "Class.method" names a method.
# Spans and counters are named "module.attribute".
SPANNED = (
    ("cli", "main"),
    ("groups", "load_table_file"),
    ("groups", "validate_cayley"),
    ("groups", "subgroup_lattice"),
    ("groups", "normal_subgroups_of"),
    ("search", "all_power_groups"),
    ("search", "local_monoid"),
    ("search", "unit_group"),
    ("search", "power_group_family"),
    ("classify", "match_subquotient"),
    ("classify", "enumerate_subquotients"),
    ("iso", "fingerprint"),
    ("records", "build_census"),
    ("records", "record_to_json"),
    ("zsets", "zset_sum"),
    ("zsets", "bounded_below"),
    ("zsets", "zset_residual"),
    ("zsets", "theorem3_unit_test"),
    ("qcuts", "rational_between"),
    ("qcuts", "decompose_member"),
)
# Hot callables, with the name their counters go under.
HOT = (
    ("groups", "FiniteGroup.product_mask", "groups.product_mask"),
    ("groups", "closure_mask", "groups.closure_mask"),
    ("zsets", "zset_window_mask", "zsets.zset_window_mask"),
    ("qcuts", "QuadExt.sign", "qcuts.QuadExt.sign"),
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [id, op, name, parent, start, end, child_s]
        self.stack: list[list[Any]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        parent = self.stack[-1][0] if self.stack else None
        rec = [len(self.spans), self.op, name, parent, perf_counter(), 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec)
        self.calls[name] += 1
        return rec

    def _close(self, rec: list[Any]) -> None:
        rec[5] = perf_counter()
        self.stack.pop()
        duration = rec[5] - rec[4]
        self.self_s[rec[2]] += duration - rec[6]
        if self.stack:
            self.stack[-1][6] += duration

    @contextmanager
    def op_span(self, op_id: int, label: str) -> Iterator[None]:
        """The root span of one op."""
        self.op = op_id
        rec = self._open("op." + label)
        try:
            yield
        finally:
            self._close(rec)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        post = _POST.get(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if post:
                post(self, args, result)
            return result

        return wrapper

    def _hot(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls, self_s, stack = self.calls, self.self_s, self.stack
        bits = name == "zsets.zset_window_mask"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                self_s[name] += dt
                if stack:
                    stack[-1][6] += dt
                    if bits:
                        self.counts[name + ".bits"] += args[2] - args[1]
                    elif stack[-1][2] == "groups.subgroup_lattice":
                        self.counts["groups.subgroup_lattice.closure_calls"] += 1

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "powergroups" or k.startswith("powergroups.")]
        targets = [(m, a, f"{m}.{a}", self._spanned) for m, a in SPANNED]
        targets += [(m, a, name, self._hot) for m, a, name in HOT]
        for module, attr, name, make in targets:
            owner = sys.modules[f"powergroups.{module}"]
            cls, _, method = attr.rpartition(".")
            if cls:
                klass = getattr(owner, cls)
                orig = klass.__dict__[method]
                self._restore.append((klass, method, orig))
                setattr(klass, method, make(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = make(name, orig)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._restore.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, op, name, parent, start, end, _ in self.spans:
                fh.write(json.dumps([sid, op, name, parent, start, end]) + "\n")


# -- counters derived from arguments and results ---------------------------


def _local_monoid(t: Tracer, args: tuple, result: Any) -> None:
    t.counts["search.local_monoid.members"] += result.size
    t.counts["search.local_monoid.masks_scanned"] += (1 << args[0].order) - 1


def _unit_group(t: Tracer, args: tuple, result: Any) -> None:
    # all_power_groups builds one unit group per idempotent it finds.
    if any(rec[2] == "search.all_power_groups" for rec in t.stack):
        t.counts["search.all_power_groups.idempotents"] += 1


def _all_power_groups(t: Tracer, args: tuple, result: Any) -> None:
    t.counts["search.all_power_groups.masks_scanned"] += (1 << args[0].order) - 1


def _subgroup_lattice(t: Tracer, args: tuple, result: Any) -> None:
    t.counts["groups.subgroup_lattice.subgroups"] += len(result)


_POST: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "search.local_monoid": _local_monoid,
    "search.unit_group": _unit_group,
    "search.all_power_groups": _all_power_groups,
    "groups.subgroup_lattice": _subgroup_lattice,
}
