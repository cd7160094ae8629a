"""Every one-shot CLI query and curve sweep still prints what the benchmark recorded.

The cli-oneshot and curve-sweeps workloads (perfbench/) run each argv
list in perfbench/refs/cli-oneshot.json and curve-sweeps.json as its own
`qcf` process and reject a run whose exit code or output differs from
the reference, by the rules in refcheck.py. This test replays the same
argv lists in-process (tests/conftest.py's QcfRunner) and the same
comparison, loaded by path, so that a changed output fails here first;
the stdout of `intervals`, `rigidity`, `bishop` and `berger` must also
equal the reference byte for byte. It replays one reference per command
as a `python -m qcf.cli` process, as the benchmark runs it. It also pins
the one-line errors of sweeps whose points fail in different ways: the
first failing point decides, as in a point-by-point loop.
"""

import json
import subprocess
import sys
import traceback

import pytest
from conftest import PERFBENCH, QcfRunner, load_perfbench

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
    return QcfRunner()


def _mismatch(runner, argv, ref, exact: bool = False):
    """refcheck's reason why the output of `qcf argv` fails ref, or None;
    with exact, stdout must also equal the reference's byte for byte."""
    res = runner.invoke(main, list(argv))
    stderr = res.stderr
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        stderr += "".join(traceback.format_exception(res.exception))
    why = refcheck.compare_cli(list(argv), res.exit_code, res.stdout, stderr, ref)
    if not why and exact and res.stdout != ref["stdout"]:
        return "stdout differs from the reference byte for byte"
    return why


# the commands whose every reference stdout replays byte for byte, where
# refcheck would let float digits, JSON keys' spacing or whitespace drift
_BYTE_EXACT = ("intervals", "rigidity", "bishop", "berger")


def test_every_oneshot_query_matches_its_reference(runner):
    failures = []
    for argv, ref in REFERENCES.items():
        why = _mismatch(runner, argv, ref, exact=argv[0] in _BYTE_EXACT)
        if why:
            failures.append(f"{' '.join(argv)}: {why}")
    assert len(REFERENCES) > 700
    assert sum(argv[0] in _BYTE_EXACT for argv in REFERENCES) == 629
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


# one reference per command, negative values given as separate tokens
# (--tau -1/2, --tau -1.5e-1), as the benchmark's processes pass them
PROCESS_REFERENCES = [
    ("intervals", "--model", "cp:2", "--tau", "-1/2"),
    ("rigidity", "--model", "cp:2", "--count", "4", "--format", "csv"),
    ("berger", "--tau", "-1.5e-1"),
    ("curve", "--family", "product", "--tau", "-1/2", "--format", "json"),
    ("grad", "--group", "su2", "--diag", "1,1,4", "--tau", "-1/3"),
    ("symbol", "--dim", "5", "--tau", "-1/2", "--trials", "2", "--format", "json"),
    ("bishop", "--vol-g", "10", "--vol-gt", "11", "--dim", "4", "--ftilde0", "3000",
     "--ric-upper-ok", "--ric-lower-ok"),
    ("verify", "--filter", "09-gauss-bonnet"),
]


def _process(argv):
    return subprocess.run([sys.executable, "-m", "qcf.cli", *argv], capture_output=True,
                          text=True, timeout=120)


def test_a_process_per_command_matches_its_reference(monkeypatch):
    monkeypatch.delenv("QCF_CATALOG", raising=False)
    assert len({argv[0] for argv in PROCESS_REFERENCES}) == 8
    for argv in PROCESS_REFERENCES:
        p = _process(argv)
        assert refcheck.compare_cli(list(argv), p.returncode, p.stdout, p.stderr,
                                    REFERENCES[argv]) is None, (argv, p.stderr)


@pytest.mark.parametrize("argv,code,stderr", [
    # a negative value as its own token is the option's value, not an option name
    (["curve", "--tau", "0", "--start", "-1e308", "--stop", "1e308"], 2,
     "error: the sweep grid from -1e+308 to 1e+308 overflows a float\n"),
    (["intervals", "--model", "sphere:4", "--tau", "-1.5e-1", "--format", "csv"], 0, ""),
    # no option name is abbreviated
    (["intervals", "--mod", "sphere:4"], 2, None),
])
def test_a_process_parses_its_options_as_the_in_process_runner(monkeypatch, argv, code, stderr):
    monkeypatch.delenv("QCF_CATALOG", raising=False)
    p = _process(argv)
    res = QcfRunner().invoke(main, argv)
    assert (p.returncode, p.stdout, p.stderr) == (code, res.stdout, res.stderr)
    assert stderr is None or p.stderr == stderr
    assert p.stderr.count("\n") == (1 if code else 0)
