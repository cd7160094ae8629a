"""Every one-shot CLI query and curve sweep still prints what the benchmark recorded.

The cli-oneshot and curve-sweeps workloads (perfbench/) run each argv
list in perfbench/refs/cli-oneshot.json and curve-sweeps.json as its own
`qcf` process and reject a run whose exit code or output differs from
the reference, by the rules in refcheck.py. This test replays the same
argv lists in-process through click's CliRunner and the same
comparison, loaded by path, so that a changed output fails here first.
It also pins the one-line errors of sweeps whose points fail in
different ways: the first failing point decides, as in a point-by-point
loop.
"""

import json
import traceback

import pytest
from click.testing import CliRunner
from conftest import PERFBENCH, load_perfbench

from qcf.cli import main

refcheck = load_perfbench("refcheck")


def _references(workload: str) -> dict:
    with open(PERFBENCH / "refs" / f"{workload}.json", encoding="utf-8") as fh:
        return {tuple(json.loads(key)): ref for key, ref in json.load(fh)["results"].items()}


REFERENCES = _references("cli-oneshot")
CURVE_REFERENCES = _references("curve-sweeps")


@pytest.fixture
def runner(monkeypatch):
    # the benchmark runs every query against the built-in catalog
    monkeypatch.delenv("QCF_CATALOG", raising=False)
    return CliRunner()


def _mismatch(runner, argv, ref):
    """refcheck's reason why the output of `qcf argv` fails ref, or None."""
    res = runner.invoke(main, list(argv))
    stderr = res.stderr
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        stderr += "".join(traceback.format_exception(res.exception))
    return refcheck.compare_cli(list(argv), res.exit_code, res.stdout, stderr, ref)


def test_every_oneshot_query_matches_its_reference(runner):
    failures = []
    for argv, ref in REFERENCES.items():
        why = _mismatch(runner, argv, ref)
        if why:
            failures.append(f"{' '.join(argv)}: {why}")
    assert len(REFERENCES) > 700
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("argv", [("intervals", "--model", "cp:2"),
                                  ("intervals", "--model", "cp:2", "--format", "json")])
def test_an_altered_provenance_text_is_caught(runner, argv):
    ref = dict(REFERENCES[argv])
    assert _mismatch(runner, argv, ref) is None
    ref["stdout"] = ref["stdout"].replace("TT gap closes", "TT gap opens")
    assert ref["stdout"] != REFERENCES[argv]["stdout"]
    assert _mismatch(runner, argv, ref)


def test_every_curve_sweep_matches_its_reference(runner):
    failures = []
    for argv, ref in CURVE_REFERENCES.items():
        why = _mismatch(runner, argv, ref)
        if why:
            failures.append(f"{' '.join(argv)}: {why}")
    assert len(CURVE_REFERENCES) == 42
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("argv,stderr", [
    # the first point overflows before the second is found ill-conditioned
    (["curve", "--family", "product", "--tau", "0", "--start", "800", "--stop", "1e9",
      "--points", "2", "--derivatives", "1"], "error: float overflow at this input\n"),
    (["curve", "--family", "product", "--tau", "0", "--start", "1e9", "--stop", "800",
      "--points", "2", "--derivatives", "1"],
     "error: step 7.8125e-05 underflows at s0 = 1000000000.0\n"),
    # berger evaluates the value before the derivatives
    (["berger", "--tau", "0", "--at", "1e300"], "error: float overflow at this input\n"),
    (["curve", "--tau", "0", "--start", "1e200", "--stop", "2e200", "--points", "2",
      "--derivatives", "2"], "error: step 7.8125e-05 underflows at s0 = 1e+200\n"),
])
def test_first_failing_point_decides_the_error(runner, argv, stderr):
    res = runner.invoke(main, argv)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", stderr)
