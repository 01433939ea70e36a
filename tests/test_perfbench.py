"""Smoke tests of the benchmark: a quick traced run must pass every oracle,
and its self-check must catch every corrupted output.

They catch census output drifting from the digests the benchmark froze and a
traced function disappearing from the package.  They only run the benchmark.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_benchmark(*flags):
    """Run perfbench/run.py with flags; its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_traced_benchmark_passes_its_oracles():
    results = _run_benchmark("--quick", "--trace", "1")
    assert sorted(results) == ["census", "exact-infinite", "subquotients"]
    for name, result in results.items():
        assert result["correct"] is True, name
        assert result["failed"] == 0, name
        assert result["attempted"] > 0, name


def test_benchmark_self_check_catches_every_corrupted_output():
    results = _run_benchmark("--self-check")
    assert sorted(results) == ["census", "exact-infinite", "subquotients"]
    for name, result in results.items():
        assert result["correct"] is True, name
        assert result["clean"]["failed"] == 0 < result["clean"]["attempted"], name
        corrupted = result["corrupted"]
        assert corrupted["failed"] == corrupted["attempted"] == result["clean"]["attempted"], name
