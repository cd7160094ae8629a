"""The benchmark's traced exact-sweep smoke round runs against this source.

`perfbench/run.py --smoke` runs one tiny round (verdicts, an interval, a
rigidity and a Bach report, an exact symbol and the exact `sphere:4`
invariants) with its span tracer installed, compares every decision
with the recorded references, and adds one deliberately corrupted
reference, which must be the only failure. A renamed span site, a
changed exact result or a broken exact call fails it. The benchmark
and the source are copied to a temporary directory first, so the run
record lands there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_exact_sweep_smoke_fails_only_the_corrupted_reference(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-sweep", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 1
    failures = [line for line in p.stdout.splitlines() if line.startswith("  failure:")]
    assert len(failures) == 1 and "corrupted-reference" in failures[0], p.stdout
    metrics = result["metrics"]
    for name in ("tensor_core.invariants_exact_ms", "spectral.injectivity_ms", "exact.elim_ms"):
        assert metrics[name]["value"] > 0, name
