"""Every one-shot CLI query still prints what the benchmark recorded.

The cli-oneshot workload (perfbench/) runs each argv list in
perfbench/refs/cli-oneshot.json as its own `qcf` process and rejects a
run whose exit code or output differs from the reference, by the rules
in refcheck.py. This test replays the same argv lists in-process through
click's CliRunner and the same comparison, loaded by path, so that a
changed output fails here first.
"""

import importlib.util
import json
import traceback
from pathlib import Path

import pytest
from click.testing import CliRunner

from qcf.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


refcheck = _load("refcheck")

with open(PERFBENCH / "refs" / "cli-oneshot.json", encoding="utf-8") as _fh:
    REFERENCES = {tuple(json.loads(key)): ref for key, ref in json.load(_fh)["results"].items()}


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
