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
import functools
import json
import sys
from dataclasses import is_dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .classify import enumerate_subquotients
from .errors import InternalFaultError, ParamOutOfRangeError, check_cap
from .groups import (
    FiniteGroup,
    _normalized_by,
    exponent,
    generating_set,
    group_from_name,
    iter_bits,
    load_table_file,
    normal_subgroups_of,
)
from .iso import (
    UNDERLIES_CATALOG,
    fingerprint,
    matrix_is_transitive,
    matrix_to_csv,
    underlies,
    underlies_matrix,
)
from .records import census_lines, census_rows, write_text_atomic

# zsets, qcuts and suites (and fractions) are imported inside the commands that
# use them, so an enum or subquotients process loads only the finite core.

MAX_ORDER = 8  # default --max-order of every command that takes one

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

# The choices of verify: the names of suites.SUITES, sorted, listed here so
# that building the parser does not import suites.
SUITE_NAMES = (
    "oracle-equivalence",
    "qcuts-thm4",
    "remark1-cosets",
    "thm1-equivalence",
    "thm2-finite",
    "zsets-thm3",
)


def _jsonify(value: Any) -> Any:
    from fractions import Fraction

    from . import qcuts as qc
    from . import zsets as zs

    if isinstance(value, (zs.BoundedBelow, zs.BoundedAbove, zs.TwoSidedPeriodic)):
        return zs.zset_to_text(value)
    if isinstance(value, (qc.QuadExt, qc.CutElement, Fraction)):
        return str(value)
    if is_dataclass(value) and not isinstance(value, type):
        # One level only: nested sets and cuts come back through _jsonify.
        return vars(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def _dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonify)


def _load_group(args: argparse.Namespace) -> tuple[FiniteGroup, str]:
    if args.group and args.table:
        raise ParamOutOfRangeError("give --group NAME or --table PATH, not both")
    if args.group:
        g = group_from_name(args.group)
        label = args.group
    elif args.table:
        g = load_table_file(args.table)
        label = g.name
    else:
        raise ParamOutOfRangeError("need --group NAME or --table PATH")
    check_cap(g.order, args.max_order, "--max-order: group order")
    return g, label


def _write(out: Optional[str], chunks: Iterable[str]) -> None:
    """Write the chunks to ``out`` atomically, or without ``out`` to stdout
    in one write once all are made, so a fault while making them prints
    nothing."""
    if out:
        write_text_atomic(out, chunks)
    else:
        sys.stdout.write("".join(chunks))


def _emit(out: Optional[str], chunks: Iterable[str], summary: Callable[[], str]) -> None:
    """_write the chunks, then print summary(): to stdout when the chunks
    went to ``out``, else to stderr."""
    _write(out, chunks)
    print(summary(), file=sys.stdout if out else sys.stderr)


def cmd_enum(args: argparse.Namespace) -> int:
    g, label = _load_group(args)
    flags = []  # the subquotient flag of each line made so far

    def census_text() -> Iterator[str]:
        for subquotient, line in census_lines(g, label, census_rows(g, max_order=args.max_order)):
            flags.append(subquotient)
            yield line

    _emit(args.out, census_text(), lambda: f"group={label} families={len(flags)} subquotients={sum(flags)}")
    return 0


def cmd_subquotients(args: argparse.Namespace) -> int:
    g, label = _load_group(args)
    # Each line is the sorted-key compact JSON of {carrier, family, group,
    # kernel, order}, written from text pieces: cosets, carriers and kernels
    # recur from pair to pair, so each mask is formatted once, as is the label.
    text = functools.cache(lambda mask: "[" + ",".join(map(str, g.members_of(mask))) + "]")
    group = json.dumps(label)
    lines = [
        f'{{"carrier":{text(desc.carrier)},'
        f'"family":[{",".join(map(text, cosets))}],'
        f'"group":{group},"kernel":{text(desc.kernel)},"order":{len(cosets)}}}\n'
        for desc, cosets in enumerate_subquotients(g)
    ]
    _emit(args.out, lines, lambda: f"group={label} subquotients={len(lines)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .suites import run_suite

    checks = run_suite(
        args.suite,
        max_order=args.max_order,
        trials=args.trials,
        seed=args.seed,
        window=args.window,
        witness_trials=min(args.trials, 100),
    )
    text = "".join(
        _dumps({"suite": c.suite, "check": c.name, "ok": c.ok, "detail": c.detail}) + "\n"
        for c in checks
    )
    failed = [c for c in checks if not c.ok]
    _emit(args.out, (text,), lambda: f"suite={args.suite} checks={len(checks)} failed={len(failed)}")
    return 1 if failed else 0


def cmd_underlies(args: argparse.Namespace) -> int:
    if args.matrix:
        if args.matrix != "default":
            raise ParamOutOfRangeError(f"unknown matrix catalog {args.matrix!r}; only 'default'")
        names = list(UNDERLIES_CATALOG)
        groups = [group_from_name(n) for n in names]
        matrix = underlies_matrix(groups, max_order=args.max_order)
        _write(args.out, (matrix_to_csv(names, matrix),))
        transitive = matrix_is_transitive(matrix)
        print(f"transitive: {str(transitive).lower()}")
        return 0 if transitive else 1
    if not (args.g1 and args.g2):
        raise ParamOutOfRangeError("need --g1 and --g2, or --matrix default")
    g1, g2 = group_from_name(args.g1), group_from_name(args.g2)
    w = underlies(g1, g2, max_order=args.max_order)
    if w is None:
        text = "no\n"
    else:
        witness = {
            "family": [list(iter_bits(m)) for m in w.family.elements],
            "identity": list(iter_bits(w.family.identity)),
            "mapping": list(w.mapping),
        }
        text = "yes\n" + _dumps(witness) + "\n"
    _write(args.out, (text,))
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.catalog_cmd == "list":
        for name in CATALOG_NAMES:
            g = group_from_name(name)
            print(f"{name}\torder={g.order}\tabelian={str(g.is_abelian).lower()}")
        return 0
    g = group_from_name(args.group)
    fp = fingerprint(g)
    subs = g.subgroup_masks
    # normal_subgroups_of reads the normalizers; the check conjugates each
    # subgroup by generators of g instead.
    normal = normal_subgroups_of(g, subs[-1])
    gens = generating_set(g, g.full_mask)
    conjugated = [n for n in subs if _normalized_by(g, n, gens)]
    if normal != conjugated:
        raise InternalFaultError(
            f"{len(normal)} normal subgroups of {args.group} from the normalizers, "
            f"{len(conjugated)} by conjugation"
        )
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
                "normal_subgroups": len(normal),
            }
        )
    )
    return 0


def cmd_zset(args: argparse.Namespace) -> int:
    from . import zsets as zs

    if args.zset_cmd == "sum":
        a = zs.zset_from_text(args.a)
        b = zs.zset_from_text(args.b)
        c = zs.zset_sum(a, b, verify=True)
        half = args.window // 2
        window = zs.zset_window_mask(c, -half, half + 1)
        members = [i - half for i in iter_bits(window)]
        print(_dumps({"a": a, "b": b, "sum": c, "window": [-half, half], "window_members": members}))
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
    from . import qcuts as qc

    if args.qcuts_cmd == "verify":
        gens = [qc.parse_endpoint(t) for t in args.generators.split(",")]
        rep = qc.verify_cut_power_group(generators=gens, trials=args.trials, seed=args.seed)
        print(_dumps(rep))
        return 0 if rep.ok else 1
    w = qc.not_coset_group_witness(trials=args.trials, seed=args.seed)
    print(_dumps(w))
    return 0 if w.ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-order", type=int, default=MAX_ORDER, help="largest carrier group order")
    p.add_argument("--out", help="write results here (atomic rename)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (main may run many times)."""
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
    p.add_argument("suite", choices=SUITE_NAMES)
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
    except (ValueError, OSError) as exc:
        # Every domain error (bad table, unknown name, cap overrun,
        # unrepresentable set arithmetic) derives from ValueError.  Argparse
        # rejects unknown suites, so a KeyError is a bug and escapes (exit 1).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
