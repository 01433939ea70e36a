"""The three workloads: fixed op multisets whose inputs come from a seed.

Each pass draws fresh inputs from ``Random(f"{seed}:{workload}:{pass}")``:
new relabellings of the same groups, new integer sets and new endpoints.  So
no pass repeats an input of an earlier one, while every pass does the same
kind and amount of work.  An op is a timed call plus an output extractor, an
oracle check and a corruption used by the self-check, all three run outside
the timed region.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Callable

import groupgen
import infgen
import oracles

# Every group of order 8-15, plus C16: the paper's finite census at a raised
# cap.  Orders <= 8 alone take 60 ms in all; C2^4 takes 16 s.  D8 (5 s) is
# left out: it would cut a run to a few passes, and every timing is a median
# over passes.
CENSUS = (
    "C8", "D4", "Q8", "C2xC4", "V4xC2", "C9", "C3xC3", "D5", "C10", "C11",
    "C12", "C2xC6", "D6", "C13", "D7", "C14", "C15", "C16",
)
# Orders 12-24 through the subquotient listing, which scans no subsets.
# Orders 32 and 48 take minutes each on the seed code.
SUBQUOTIENTS = (
    "D6", "C4xC4", "C8xC2", "C4xC2xC2", "Q8xC2", "D8", "C2^4", "D9", "S3xC3",
    "D10", "C2xC2xC6", "D4xC3", "S3xC4", "S4", "D12",
)
# workload -> (CLI command, groups, --max-order)
FINITE = {"census": ("enum", CENSUS, 16), "subquotients": ("subquotients", SUBQUOTIENTS, 24)}
QUICK_GROUPS = {"census": ("C8", "Q8", "C9", "D5"), "subquotients": ("D6", "C8xC2", "D8")}

# Ops per exact-infinite pass: 296 small ops and the wide sums.  The second
# slowest op of a pass is the second-widest sum.
EXACT_MIX = {"zset_sum": 120, "theorem3": 60, "rational_between": 60, "decompose_member": 56}
QUICK_EXACT_MIX = {"zset_sum": 10, "theorem3": 5, "rational_between": 5, "decompose_member": 5}


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    output: Callable[[Any], Any]
    check: Callable[[Any], bool]
    corrupt: Callable[[Any], Any]
    kind: str = ""  # isomorphism type, for finite ops
    relabelled: groupgen.Relabelled | None = None


class FiniteWorkload:
    """``enum`` or ``subquotients`` through the CLI on relabelled table files."""

    def __init__(self, command: str, names: tuple[str, ...], cap: int, cli: Any,
                 workdir: str, digests: dict[str, str] | None):
        self.command, self.names, self.cap = command, names, str(cap)
        self.cli, self.workdir, self.digests = cli, workdir, digests
        self.bases = {name: groupgen.build(name) for name in names}
        for table in self.bases.values():
            groupgen.check_group(table)

    def ops(self, rng: Random) -> list[Op]:
        order = list(self.names)
        rng.shuffle(order)
        out = []
        for name in order:
            rel = groupgen.relabel(name, self.bases[name], rng)
            path = os.path.join(self.workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rel.document())
            out.append(self._op(rel, path))
        return out

    def _op(self, rel: groupgen.Relabelled, path: str) -> Op:
        argv = [self.command, "--table", path, "--max-order", self.cap]
        cli = self.cli

        def call() -> tuple[int, str]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue()

        def check(result: tuple[int, str]) -> bool:
            rc, stdout = result
            if rc != 0:
                return False
            lines = oracles.canonical_lines(rel, stdout)
            if len(lines) != oracles.family_count(rel.name):
                return False
            return self.digests is None or oracles.digest(lines) == self.digests[rel.name]

        def drop_first_line(result: tuple[int, str]) -> tuple[int, str]:
            rc, stdout = result
            return rc, stdout.split("\n", 1)[1]

        return Op(f"{self.command}.{rel.name}", call, lambda r: r, check, drop_first_line, rel.name, rel)


def _sum_op(label: str, a: infgen.ZText, b: infgen.ZText, zs: Any) -> Op:
    x, y = zs.zset_from_text(a.text), zs.zset_from_text(b.text)
    ta, tb = oracles.ZSetText(a.text), oracles.ZSetText(b.text)
    return Op(
        label,
        lambda: zs.zset_sum(x, y),
        zs.zset_to_text,
        lambda text: oracles.check_sum(ta, tb, text),
        oracles.flip_first_bit,
    )


def _unit_op(case: infgen.UnitCase, zs: Any) -> Op:
    e, a = zs.zset_from_text(case.identity), zs.zset_from_text(case.candidate)

    def check(v: tuple[bool, bool, bool]) -> bool:
        unit, translate, agree = v
        return agree and unit == translate and (unit or not case.is_translate)

    return Op(
        "theorem3_unit_test",
        lambda: zs.theorem3_unit_test(e, a),
        lambda v: (v.unit_ok, v.translate_ok, v.agree),
        check,
        lambda v: (not v[0], v[1], v[2]),
    )


def _between_op(a: infgen.QPair, b: infgen.QPair, qc: Any) -> Op:
    qa, qb = (qc.parse_endpoint(infgen.endpoint_text(e)) for e in (a, b))
    return Op(
        "rational_between",
        lambda: qc.rational_between(qa, qb),
        lambda r: r,
        lambda r: oracles.check_between(a, b, r),
        lambda r: r + 10,
    )


def _decompose_op(a: infgen.QPair, b: infgen.QPair, x: Fraction, qc: Any) -> Op:
    ca, cb = (qc.cut(qc.parse_endpoint(infgen.endpoint_text(e))) for e in (a, b))

    def corrupt(r: Any) -> Any:
        return (x / 2, x / 2) if r is None else (r[0], r[1] + 1)

    return Op(
        "decompose_member",
        lambda: qc.decompose_member(ca, cb, x),
        lambda r: r,
        lambda r: oracles.check_decompose(a, b, x, r),
        corrupt,
    )


class ExactWorkload:
    """Library calls on integer sets and cuts; no CLI, whose argparse alone
    costs about 3 ms against ops of 0.03-1 ms."""

    def __init__(self, zs: Any, qc: Any, quick: bool):
        self.zs, self.qc = zs, qc
        self.mix = QUICK_EXACT_MIX if quick else EXACT_MIX
        self.wide = infgen.WIDE_PERIODS[:1] if quick else infgen.WIDE_PERIODS

    def ops(self, rng: Random) -> list[Op]:
        zs, qc = self.zs, self.qc
        out = [_sum_op("zset_sum", *infgen.small_sum_pair(rng), zs) for _ in range(self.mix["zset_sum"])]
        out += [_sum_op(f"zset_sum.wide.{p}x{q}", *infgen.wide_sum_pair(rng, p, q), zs) for p, q in self.wide]
        out += [_unit_op(infgen.unit_case(rng), zs) for _ in range(self.mix["theorem3"])]
        out += [_between_op(*infgen.sqrt2_pair(rng), qc) for _ in range(self.mix["rational_between"])]
        for _ in range(self.mix["decompose_member"]):
            a, b = infgen.sqrt2_pair(rng)
            out.append(_decompose_op(a, b, infgen.member_target(rng, a, b), qc))
        rng.shuffle(out)
        return out
