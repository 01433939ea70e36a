"""Command-line front end.

Exit codes are a stable contract: 0 means every requested check passed,
1 means a mathematical assertion failed or an internal invariant broke (a
discrepancy worth investigating),
2 means the input or usage was wrong (unknown group, bad table file, cap
violation, unparsable set text).  All randomness is controlled by --seed and
file output is written to a temporary file and renamed, so an interrupted run
never leaves a truncated file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import qcuts as qc
from . import zsets as zs
from .classify import enumerate_subquotients
from .errors import CapExceededError, InternalFaultError, ParamOutOfRangeError
from .groups import (
    FiniteGroup,
    all_subgroups,
    exponent,
    group_from_name,
    iter_bits,
    load_table_file,
    normal_subgroups_of,
)
from .iso import fingerprint, matrix_is_transitive, matrix_to_csv, underlies, underlies_matrix
from .records import build_census, record_to_json, write_text_atomic
from .suites import SUITES, UNDERLIES_CATALOG, run_suite

CATALOG_NAMES = (
    "trivial",
    "C2",
    "C3",
    "C4",
    "C5",
    "C6",
    "C7",
    "C8",
    "klein4",
    "V4xC2",
    "C2xC2xC2",
    "S3",
    "S4",
    "D4",
    "D5",
    "D6",
    "Q8",
)


def _jsonify(value: Any) -> Any:
    if isinstance(value, (zs.BoundedBelow, zs.BoundedAbove, zs.TwoSidedPeriodic)):
        return zs.zset_to_text(value)
    if isinstance(value, (qc.QuadExt, qc.CutElement, Fraction)):
        return str(value)
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def _dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonify)


def _load_group(args: argparse.Namespace) -> tuple[FiniteGroup, str]:
    if getattr(args, "group", None):
        g = group_from_name(args.group)
        label = args.group
    elif getattr(args, "table", None):
        g = load_table_file(args.table)
        label = g.name or os.path.basename(args.table)
    else:
        raise ParamOutOfRangeError("need --group NAME or --table PATH")
    if g.order > args.max_order:
        raise CapExceededError(
            f"group order {g.order} exceeds cap {args.max_order}; raise --max-order explicitly"
        )
    return g, label


def _emit(out: Optional[str], text: str, summary: str) -> None:
    """Write text to ``out`` atomically and print the summary, or, without
    ``out``, write text to stdout and the summary to stderr."""
    if out:
        write_text_atomic(out, (text,))
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def cmd_enum(args: argparse.Namespace) -> int:
    g, label = _load_group(args)
    records = build_census(g, label, max_order=args.max_order)
    lines = "".join(record_to_json(r) + "\n" for r in records)
    sub = sum(1 for r in records if r.subquotient)
    _emit(args.out, lines, f"group={label} families={len(records)} subquotients={sub}")
    return 0


def cmd_subquotients(args: argparse.Namespace) -> int:
    g, label = _load_group(args)
    lines = []
    for desc, fam in enumerate_subquotients(g):
        lines.append(
            _dumps(
                {
                    "group": label,
                    "carrier": list(iter_bits(desc.carrier.members)),
                    "kernel": list(iter_bits(desc.kernel.members)),
                    "order": fam.order,
                    "family": [list(iter_bits(m)) for m in fam.masks()],
                }
            )
        )
    text = "".join(line + "\n" for line in lines)
    _emit(args.out, text, f"group={label} subquotients={len(lines)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks = run_suite(
        args.suite,
        max_order=args.max_order,
        trials=args.trials,
        seed=args.seed,
        window=args.window,
        witness_trials=min(args.trials, 100),
    )
    for c in checks:
        print(_dumps({"suite": c.suite, "check": c.name, "ok": c.ok, "detail": c.detail}))
    failed = [c for c in checks if not c.ok]
    print(f"suite={args.suite} checks={len(checks)} failed={len(failed)}", file=sys.stderr)
    return 1 if failed else 0


def cmd_underlies(args: argparse.Namespace) -> int:
    if args.matrix:
        if args.matrix != "default":
            raise ParamOutOfRangeError(f"unknown matrix catalog {args.matrix!r}; only 'default'")
        names = list(UNDERLIES_CATALOG)
        groups = [group_from_name(n) for n in names]
        if any(g.order > args.max_order for g in groups):
            raise CapExceededError(f"catalog exceeds cap {args.max_order}")
        matrix = underlies_matrix(groups, max_order=args.max_order)
        csv = matrix_to_csv(names, matrix)
        if args.out:
            write_text_atomic(args.out, (csv,))
        else:
            sys.stdout.write(csv)
        transitive = matrix_is_transitive(matrix)
        print(f"transitive: {str(transitive).lower()}")
        return 0 if transitive else 1
    if not (args.g1 and args.g2):
        raise ParamOutOfRangeError("need --g1 and --g2, or --matrix default")
    g1, g2 = group_from_name(args.g1), group_from_name(args.g2)
    if max(g1.order, g2.order) > args.max_order:
        raise CapExceededError(f"order exceeds cap {args.max_order}")
    w = underlies(g1, g2, max_order=args.max_order)
    if w is None:
        print("no")
    else:
        print("yes")
        print(
            _dumps(
                {
                    "family": [list(iter_bits(m)) for m in w.family.masks()],
                    "identity": list(iter_bits(w.family.identity.members)),
                    "mapping": list(w.mapping),
                }
            )
        )
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.catalog_cmd == "list":
        for name in CATALOG_NAMES:
            g = group_from_name(name)
            print(f"{name}\torder={g.order}\tabelian={str(g.is_abelian).lower()}")
        return 0
    g = group_from_name(args.group)
    fp = fingerprint(g)
    subs = all_subgroups(g)
    print(
        _dumps(
            {
                "name": args.group,
                "order": g.order,
                "abelian": g.is_abelian,
                "exponent": exponent(g),
                "center_size": fp.center_size,
                "element_orders": list(fp.element_orders),
                "conjugacy_class_sizes": list(fp.conjugacy_class_sizes),
                "subgroups": len(subs),
                "normal_subgroups": len(normal_subgroups_of(g, subs[-1])),
            }
        )
    )
    return 0


def cmd_zset(args: argparse.Namespace) -> int:
    if args.zset_cmd == "sum":
        a = zs.zset_from_text(args.a)
        b = zs.zset_from_text(args.b)
        c = zs.zset_sum(a, b, verify=True)
        half = args.window // 2
        print(
            _dumps(
                {
                    "a": a,
                    "b": b,
                    "sum": c,
                    "window": [-half, half],
                    "window_members": [
                        x for x in range(-half, half + 1) if zs.zset_contains(c, x)
                    ],
                }
            )
        )
        return 0
    if args.zset_cmd == "idempotent":
        s = zs.zset_from_text(args.set)
        print(_dumps({"set": s, "idempotent": zs.zset_is_idempotent(s)}))
        return 0
    if args.zset_cmd == "coset-group":
        e = zs.zset_from_text(args.identity)
        half = args.window // 2
        rep = zs.build_z_coset_group(e, args.step, -half, half)
        print(_dumps(rep))
        return 0 if rep.ok else 1
    # thm3-test
    e = zs.zset_from_text(args.identity)
    a = zs.zset_from_text(args.candidate)
    v = zs.theorem3_unit_test(e, a)
    print(
        _dumps(
            {
                "identity": e,
                "candidate": a,
                "unit": v.unit_ok,
                "translate": v.translate_ok,
                "agree": v.agree,
                "residual": v.residual,
            }
        )
    )
    return 0 if v.agree else 1


def cmd_qcuts(args: argparse.Namespace) -> int:
    if args.qcuts_cmd == "verify":
        gens = [qc.parse_endpoint(t) for t in args.generators.split(",")]
        rep = qc.verify_cut_power_group(generators=gens, trials=args.trials, seed=args.seed)
        print(_dumps(rep))
        return 0 if rep.ok else 1
    w = qc.not_coset_group_witness(trials=args.trials, seed=args.seed)
    print(_dumps(w))
    return 0 if w.ok else 1


def _add_common(p: argparse.ArgumentParser, *, max_order: int = 8) -> None:
    p.add_argument("--max-order", type=int, default=max_order, help="largest carrier group order")
    p.add_argument("--out", help="write results here (atomic rename)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powergroups",
        description="Enumerate and classify groups made of subsets of a group.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enum", help="enumerate all subset families forming a group")
    p.add_argument("--group", help=f"catalog name, e.g. {', '.join(CATALOG_NAMES[:6])}, D4, Q8")
    p.add_argument("--table", help="path to a JSON Cayley table {order, table}")
    _add_common(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("subquotients", help="list all (H, N normal in H) coset families")
    p.add_argument("--group")
    p.add_argument("--table")
    _add_common(p)
    p.set_defaults(func=cmd_subquotients)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=256)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("underlies", help="does --g2 occur as a subset group inside --g1?")
    p.add_argument("--g1")
    p.add_argument("--g2")
    p.add_argument("--matrix", help="'default' for the full catalog relation as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_underlies)

    p = sub.add_parser("catalog", help="built-in groups")
    csub = p.add_subparsers(dest="catalog_cmd", required=True)
    c = csub.add_parser("list", help="names and orders")
    c.set_defaults(func=cmd_catalog)
    c = csub.add_parser("show", help="invariants of one group")
    c.add_argument("--group", required=True)
    c.set_defaults(func=cmd_catalog)

    p = sub.add_parser("zset", help="exact integer-set algebra")
    zsub = p.add_subparsers(dest="zset_cmd", required=True)
    z = zsub.add_parser("sum", help="Minkowski sum of two set expressions")
    z.add_argument("a", help="e.g. 'BB(0;;1;1)' (naturals) or 'TS(2;0)' (evens)")
    z.add_argument("b")
    z.add_argument("--window", type=int, default=32)
    z.set_defaults(func=cmd_zset)
    z = zsub.add_parser("idempotent", help="test S + S = S")
    z.add_argument("set")
    z.set_defaults(func=cmd_zset)
    z = zsub.add_parser("coset-group", help="verify {a + E} on a window of representatives")
    z.add_argument("--identity", required=True, help="idempotent set text")
    z.add_argument("--step", type=int, default=1)
    z.add_argument("--window", type=int, default=16)
    z.set_defaults(func=cmd_zset)
    z = zsub.add_parser("thm3-test", help="unit-at-E vs translate-of-E verdict")
    z.add_argument("--identity", required=True)
    z.add_argument("--candidate", required=True)
    z.set_defaults(func=cmd_zset)

    p = sub.add_parser("qcuts", help="rational upper-cut family")
    qsub = p.add_subparsers(dest="qcuts_cmd", required=True)
    q = qsub.add_parser("verify", help="group laws and failed coset conditions")
    q.add_argument("--generators", default="1,sqrt2", help="comma-separated endpoints")
    q.add_argument("--trials", type=int, default=500)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_qcuts)
    q = qsub.add_parser("witness", help="separate the sqrt2 cut from every rational translate")
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_qcuts)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalFaultError as exc:
        # An internal invariant failed: a discrepancy, not a usage error.
        print(f"error: internal fault: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        # Every domain error (bad table, unknown name, cap overrun,
        # unrepresentable set arithmetic) derives from ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
