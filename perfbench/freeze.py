"""Freeze the canonical digests the finite oracles compare against.

    python3 perfbench/freeze.py

Runs ``enum`` and ``subquotients`` once on every benchmark group, puts each
listing in the label-free canonical form of ``oracles.canonical_lines`` and
writes the digests to ``perfbench/digests.json``.  Run it only on a commit
whose listings are known to be right; every later run is checked against it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from random import Random

import run
import oracles
import workloads as wl


def main() -> int:
    sys.path.insert(0, run.SRC)
    import powergroups.cli as cli

    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tables-", dir=run.ROOT) as workdir:
        for command, groups, cap in wl.FINITE.values():
            source = wl.FiniteWorkload(command, groups, cap, cli, workdir, None)
            digests[command] = {}
            for op in source.ops(Random(f"freeze:{command}")):
                rc, stdout = op.call()
                lines = oracles.canonical_lines(op.relabelled, stdout)
                if rc != 0 or len(lines) != oracles.family_count(op.kind):
                    print(f"{op.label}: exit {rc}, {len(lines)} families", file=sys.stderr)
                    return 1
                digests[command][op.kind] = oracles.digest(lines)
                print(f"{op.label}: {len(lines)} families")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
