"""Smoke test of the benchmark: a quick traced run must pass every oracle.

It catches census output drifting from the digests the benchmark froze and a
traced function disappearing from the package.  It only runs the benchmark.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_traced_benchmark_passes_its_oracles():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--quick", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == ["census", "exact-infinite", "subquotients"]
    for name, result in results.items():
        assert result["correct"] is True, name
        assert result["failed"] == 0, name
        assert result["attempted"] > 0, name
