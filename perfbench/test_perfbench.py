"""Smoke tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs its tiny smoke round, traced and untraced, against
the recorded references plus one deliberately corrupted reference that
must be the only failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["cli-oneshot", "exact-sweep", "curve-sweeps"])
def test_smoke_detects_only_the_corrupted_reference(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", trace, "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 1
    assert "corrupted-reference" in p.stdout
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _run(tmp_path, "--workload", "cli-oneshot", "--seed", "1", "--seconds", "1",
             "--trace", "0")
    assert p.returncode != 0
    assert p.stdout == ""


def test_every_seeded_query_has_a_reference():
    sys.path.insert(0, str(HERE))
    import queries

    refs = {w: json.loads((HERE / "refs" / f"{w}.json").read_text())
            for w in ("cli-oneshot", "exact-sweep", "curve-sweeps")}
    pool = refs["exact-sweep"]["verdict_pool"]
    assert queries.cli_round(5) == queries.cli_round(5) != queries.cli_round(6)
    for seed in range(30):
        for w, qs in (("cli-oneshot", queries.cli_round(seed)),
                      ("curve-sweeps", queries.curve_round(seed)),
                      ("exact-sweep", queries.exact_round(seed, pool))):
            missing = [q for q in qs if queries.query_key(q) not in refs[w]["results"]]
            assert not missing, (w, seed, missing[:3])
