"""The powergroups benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --quick            # a few ops of every workload
    python3 perfbench/run.py --self-check       # corrupted outputs must fail

Run from the root of a source checkout; the package is imported from
``src/``.  A run repeats passes over the workload's fixed op multiset, with
fresh seeded inputs each pass, until ``--seconds`` is used (and at least the
workload's minimum number of passes has run), then checks every output
against its oracle outside the timed region.  It prints the metrics by name
with units, writes a results file under ``.perfbench-out/``, and prints one
JSON object as the last line of standard output.  The process re-executes
itself once with ``PYTHONHASHSEED`` set from ``--seed`` (see hash_seed).

``--trace 0`` reports the end-to-end metrics: the median time of a fresh
``import powergroups.cli`` (setup_s); a pass's time (wall_s), its median op
latency (op_ms.p50) and its TAIL_RANK-th slowest op latency (op_ms.tail), each
the median over the passes; and the peak resident memory.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced passes, per pass, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from random import Random
from time import perf_counter
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("census", "subquotients", "exact-infinite")
# Each timing is taken per pass, over the pass's fixed op multiset, and
# reported as its median over the passes.  op_ms.tail is the TAIL_RANK-th
# slowest op of a pass: census, one of the order 14-15 carriers (D7, C14,
# C15); subquotients, one of the four order 16-24 carriers that take about a
# second (C2^4, S4, D12, C2xC2xC6); exact-infinite, the second-widest sum
# (periods 101 and 103).  At MIN_PASSES, at least ten ops of the run are
# slower than the ranks the tail is taken at.
TAIL_RANK = {"census": 3, "subquotients": 4, "exact-infinite": 2}
MIN_PASSES = {"census": 6, "subquotients": 5, "exact-infinite": 20}
# Set-up is timed SETUP_RUNS times, spread evenly over the run: a shared
# host's speed can change within seconds, and samples taken back to back all
# see the same state.
SETUP_RUNS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MiB",
}
# Per-layer metrics in report order; unit_of gives each one's unit.
PER_LAYER = (
    "groups.product_mask.calls", "groups.product_mask.self_s",
    "search.local_monoid.calls", "search.local_monoid.self_s",
    "search.local_monoid.member_ratio", "search.local_monoid.masks_scanned",
    "search.all_power_groups.idempotent_ratio", "search.all_power_groups.masks_scanned",
    "search.unit_group.self_s",
    "groups.closure_mask.calls", "groups.closure_mask.self_s",
    "groups.subgroup_lattice.calls", "groups.subgroup_lattice.self_s",
    "groups.subgroup_lattice.new_ratio", "groups.subgroup_lattice.closure_calls",
    "groups.normal_subgroups_of.calls", "groups.normal_subgroups_of.self_s",
    "search.power_group_family.calls", "search.power_group_family.self_s",
    "groups.validate_cayley.calls", "groups.validate_cayley.self_s",
    "groups.load_table_file.self_s",
    "classify.match_subquotient.calls", "classify.match_subquotient.self_s",
    "classify.enumerate_subquotients.self_s",
    "iso.fingerprint.calls", "iso.fingerprint.self_s",
    "records.build_census.self_s",
    "records.record_to_json.calls", "records.record_to_json.self_s",
    "cli.main.self_s",
    "zsets.zset_sum.calls", "zsets.zset_sum.self_s",
    "zsets.zset_window_mask.calls", "zsets.zset_window_mask.self_s",
    "zsets.zset_window_mask.bits",
    "zsets.bounded_below.calls", "zsets.bounded_below.self_s",
    "zsets.zset_residual.calls", "zsets.zset_residual.self_s",
    "zsets.theorem3_unit_test.self_s",
    "qcuts.rational_between.calls", "qcuts.rational_between.self_s",
    "qcuts.QuadExt.sign.calls",
    "qcuts.decompose_member.self_s",
    "trace.wall_s", "trace.overhead_s",
)
# ratio name -> (numerator counter, denominator counter)
RATIOS = {
    "search.local_monoid.member_ratio": (
        "search.local_monoid.members", "search.local_monoid.masks_scanned"),
    "search.all_power_groups.idempotent_ratio": (
        "search.all_power_groups.idempotents", "search.all_power_groups.masks_scanned"),
    "groups.subgroup_lattice.new_ratio": (
        "groups.subgroup_lattice.subgroups", "groups.subgroup_lattice.closure_calls"),
}


def hash_seed(seed: int) -> str:
    """PYTHONHASHSEED for every process a run times.  The string hash seed
    moves some ops' cost, so it comes from --seed: runs with the same seed
    are paired, and a set of seeds samples as many hash seeds."""
    return str(seed % 2**32)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Workload:
    """Builds each pass's ops for one workload."""

    def __init__(self, name: str, seed: int, quick: bool, workdir: str, digests: dict):
        import powergroups.cli as cli
        from powergroups import qcuts, zsets

        import workloads as wl

        self.name, self.seed = name, seed
        if name == "exact-infinite":
            self.source: Any = wl.ExactWorkload(zsets, qcuts, quick)
        else:
            command, groups, cap = wl.FINITE[name]
            if quick:
                groups = wl.QUICK_GROUPS[name]
            self.source = wl.FiniteWorkload(command, groups, cap, cli, workdir, digests.get(command))

    def ops(self, pass_index: int) -> list:
        return self.source.ops(Random(f"{self.seed}:{self.name}:{pass_index}"))


class Outcome:
    """Latencies, pass times and failures of the passes run so far."""

    def __init__(self) -> None:
        self.pass_times: list[float] = []
        self.pass_latencies: list[list[float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.kinds: list[str] = []
        self.labels: list[str] = []


def run_pass(ops: list, outcome: Outcome, tracer: Any = None, corrupt: bool = False) -> float:
    """Run the ops back to back, then check their outputs; return the pass time."""
    raw: list[tuple[Any, Any]] = []
    latencies: list[float] = []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            if tracer is None:
                result: Any = op.call()
            else:
                with tracer.op_span(len(outcome.labels) + len(latencies), op.label):
                    result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        t1 = perf_counter()
        raw.append((op, result))
        latencies.append(t1 - t0)
    elapsed = perf_counter() - start
    outcome.labels += [op.label for op in ops]
    outcome.pass_latencies.append(latencies)
    for op, result in raw:
        outcome.attempted += 1
        outcome.kinds.append(op.kind)
        if isinstance(result, Exception):
            outcome.failures.append(f"{op.label}: raised {type(result).__name__}: {result}")
            continue
        try:
            out = op.output(result)
            ok = op.check(op.corrupt(out) if corrupt else out)
        except Exception:  # a malformed output fails its check
            ok = False
        if not ok:
            outcome.failures.append(f"{op.label}: wrong output")
    outcome.pass_times.append(elapsed)
    return elapsed


def import_time() -> float:
    """Fresh-process time of ``import powergroups.cli``, under this process's
    hash seed."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t = time.perf_counter()\n"
        "import powergroups.cli\n"
        "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def host() -> dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version()}


def run_workload(args: argparse.Namespace, corrupt: bool = False) -> dict[str, Any]:
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tables-", dir=ROOT) as workdir:
        wl = Workload(args.workload, args.seed, args.quick, workdir, digests)
        if args.trace:
            return trace_run(args, wl)
        outcome = Outcome()
        min_passes = 1 if args.quick else MIN_PASSES[args.workload]
        import_time()  # compiles the bytecode; not counted
        setup = [import_time()]
        start = perf_counter()
        while True:
            run_pass(wl.ops(len(outcome.pass_times)), outcome, corrupt=corrupt)
            elapsed = perf_counter() - start
            while len(setup) < SETUP_RUNS * min(1.0, elapsed / args.seconds):
                setup.append(import_time())
            if args.quick or len(outcome.pass_times) >= min_passes and (
                perf_counter() - start + statistics.median(outcome.pass_times) > args.seconds
            ):
                break
        while len(setup) < SETUP_RUNS:
            setup.append(import_time())
    rank = min(TAIL_RANK[args.workload], len(outcome.pass_latencies[0]))
    by_rank = [sorted(lat, reverse=True) for lat in outcome.pass_latencies]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(outcome.pass_times),
        "op_ms.p50": statistics.median(statistics.median(lat) for lat in outcome.pass_latencies) * 1000,
        "op_ms.tail": statistics.median(lat[rank - 1] for lat in by_rank) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kinds = [k for k in outcome.kinds if k]
    details = {
        "passes": len(outcome.pass_times),
        "pass_s": outcome.pass_times,
        "setup_runs_s": setup,
        "tail_rank": rank,
        "ops_per_pass": len(outcome.pass_latencies[0]),
        "failed_ratio": len(outcome.failures) / outcome.attempted,
        "pass_op_ms": [[x * 1000 for x in lat] for lat in outcome.pass_latencies],
        "pass_op_labels": outcome.labels,
    }
    if kinds:
        # A cache shared across ops would hit on repeated isomorphism types:
        # none within a pass, every op of the second and later passes.
        details["iso_repeat_share"] = 1 - len(set(kinds)) / len(kinds)
    return finish(args, outcome, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details)


def trace_run(args: argparse.Namespace, wl: Workload) -> dict[str, Any]:
    from spans import Tracer

    tracer = Tracer()
    plain, traced = Outcome(), Outcome()
    start = perf_counter()
    pass_index = 0
    while True:
        run_pass(wl.ops(pass_index), plain)
        tracer.install()
        try:
            run_pass(wl.ops(pass_index + 1), traced, tracer=tracer)
        finally:
            tracer.uninstall()
        pass_index += 2
        pair = plain.pass_times[-1] + traced.pass_times[-1]
        if args.quick or perf_counter() - start + pair > args.seconds:
            break
    passes = len(traced.pass_times)
    counters: dict[str, float] = {}
    for name, value in tracer.calls.items():
        counters[name + ".calls"] = value
    for name, value in tracer.self_s.items():
        counters[name + ".self_s"] = value
    counters.update(tracer.counts)
    for ratio, (num, den) in RATIOS.items():
        counters[ratio] = counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
    metrics = {}
    for name in PER_LAYER:
        value = counters.get(name, 0) if name.endswith("_ratio") else counters.get(name, 0) / passes
        metrics[name] = (value, unit_of(name))
    traced_wall = statistics.median(traced.pass_times)
    plain_wall = statistics.median(plain.pass_times)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    merged = Outcome()
    for part in (plain, traced):
        merged.attempted += part.attempted
        merged.failures += part.failures
    details = {
        "traced_passes": passes,
        "untraced_wall_s": plain_wall,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "self_s_top": sorted(
            ((k, v / passes) for k, v in tracer.self_s.items()), key=lambda kv: -kv[1]
        )[:8],
    }
    return finish(args, merged, metrics, details)


def finish(args: argparse.Namespace, outcome: Outcome, metrics: dict[str, tuple[float, str]],
           details: dict[str, Any]) -> dict[str, Any]:
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={len(outcome.failures)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "failed_ratio" in details:
        print(f"  failed_ratio = {details['failed_ratio']:.6g} (failed / attempted)")
    if "tail_rank" in details:
        print(f"  each timing is the median over {details['passes']} passes of "
              f"{details['ops_per_pass']} ops; op_ms.tail is a pass's op number "
              f"{details['tail_rank']} from the slowest")
    for line in outcome.failures[:20]:
        print(f"  FAILED {line}")
    if not args.self_check:
        os.makedirs(OUT_DIR, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "quick": args.quick, **host(), **details,
                  "failures": outcome.failures, **result}
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return result


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        if args.self_check:
            cmd.append("--self-check")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_check(args: argparse.Namespace) -> int:
    """A quick pass must pass its oracles, and the same pass with every output
    corrupted before its oracle sees it must fail on every op."""
    clean = run_workload(args, corrupt=False)
    corrupted = run_workload(args, corrupt=True)
    ok = clean["failed"] == 0 and corrupted["failed"] == corrupted["attempted"]
    print(f"self-check {args.workload}: clean pass {clean['failed']} failed, "
          f"{corrupted['failed']}/{corrupted['attempted']} corrupted outputs caught")
    print(json.dumps({"correct": ok, "clean": clean, "corrupted": corrupted}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one short pass of a few ops")
    parser.add_argument("--self-check", action="store_true",
                        help="corrupt every output of a quick pass; all must fail their oracle")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "powergroups", "__init__.py")):
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed):
        # Replace this process (same pid) by one with the seed's hash seed.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": hash_seed(args.seed)})
    # A terminated run still removes its table files and stops its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_check:
        args.quick = True
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    if args.self_check:
        return self_check(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
