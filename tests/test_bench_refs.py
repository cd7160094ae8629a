"""Every exact-sweep decision still matches the benchmark's recorded reference.

The exact-sweep workload (perfbench/) compares verdicts, intervals,
rigidity tables, Bach flags, symbol decisions and exact quadratic
invariants with the references in perfbench/refs/exact-sweep.json and
rejects a run that changes one. This test replays the same queries
through the same query runner (exact_calls.py) and comparison
(refcheck.py), both loaded by path, so a changed result fails here
first. The verify query is left to tests/test_acceptance.py, which runs
the same suite.
"""

import json
from collections import defaultdict

import pytest
from conftest import PERFBENCH, load_perfbench

from qcf.catalog import load_catalog
from qcf.stability import InsufficientSpectralData

SKIPPED_KINDS = ("verify",)

exact_calls = load_perfbench("exact_calls")
refcheck = load_perfbench("refcheck")


def _references() -> dict:
    with open(PERFBENCH / "refs" / "exact-sweep.json", encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    by_kind = defaultdict(list)
    for key, ref in results.items():
        query = json.loads(key)
        if query[0] not in SKIPPED_KINDS:
            by_kind[query[0]].append((query, ref))
    return by_kind


REFERENCES = _references()


def _decision(query, cat) -> dict:
    """The decision as the exact-sweep worker reports it."""
    call = exact_calls.prepare(query, cat)
    try:
        out = call()
    except InsufficientSpectralData:
        return {"raises": "InsufficientSpectralData"}
    return exact_calls.decide(query[0], out)


def test_every_replayed_kind_has_references():
    assert set(REFERENCES) == {"bach", "interval", "invariants", "rigidity", "symbol", "verdict"}


@pytest.mark.parametrize("kind", sorted(REFERENCES))
def test_exact_sweep_references(kind):
    cat = load_catalog()
    failures = []
    for query, ref in REFERENCES[kind]:
        why = refcheck.compare_exact(query, _decision(query, cat), ref)
        if why:
            failures.append(f"{query}: {why}")
    assert not failures, "\n".join(failures[:20])
