"""The benchmark's traced smoke rounds run against this source.

`perfbench/run.py --smoke` runs one tiny round of a workload with its
span tracer installed, compares every result with the recorded
references, and adds one deliberately corrupted reference, which must
be the only failure. The exact-sweep round covers verdicts, an
interval, a rigidity and a Bach report, an exact symbol and the exact
`sphere:4` invariants; the cli-oneshot round runs `qcf intervals`
processes in text and json; the curve-sweeps round runs a Berger and a
product `qcf curve` process. A renamed span site, a changed result or a
broken call fails it, and so does a layer the workload uses that no
longer reads a time. The benchmark and the source are copied to a
temporary directory first, so the run record lands there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# per workload, the per-layer metrics its smoke round must time above zero
LAYERS = {
    "exact-sweep": ("tensor_core.invariants_exact_ms", "spectral.injectivity_ms",
                    "exact.elim_ms"),
    "cli-oneshot": ("catalog.load_ms", "cli.schema_validate_ms"),
    "curve-sweeps": ("functionals.curve_eval_ms.berger", "functionals.curve_eval_ms.product",
                     "functionals.derivatives_self_ms"),
}


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_traced_smoke_fails_only_the_corrupted_reference(tmp_path, workload):
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 1
    failures = [line for line in p.stdout.splitlines() if line.startswith("  failure:")]
    assert len(failures) == 1 and "corrupted-reference" in failures[0], p.stdout
    metrics = result["metrics"]
    for name in LAYERS[workload]:
        assert metrics[name]["value"] > 0, name
