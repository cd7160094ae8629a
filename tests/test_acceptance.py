"""Acceptance gate: every self-check criterion must pass at its stated tolerance.

Runs the full suite once and asserts each criterion separately so a
failure pinpoints the broken check; the result record is printed for
the test log.
"""

import pytest

from qcf import verify
from qcf.cli import _verify_json, _verify_text

CRITERION_NAMES = [name for name, _ in verify.CRITERIA] + ["runtime"]


@pytest.fixture(scope="module")
def report():
    return verify.run_all()


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(report, name):
    result = next(r for r in report.results if r.name == name)
    print(result)
    assert result.passed, result


def test_report_text_shape(report):
    text = _verify_text(report)
    assert text.endswith("overall: PASS\n")
    assert text.count("[PASS]") == len(CRITERION_NAMES)


def test_report_json_round_trip(report):
    obj = _verify_json(report)
    assert obj["kind"] == "verify"
    assert obj["all_passed"] is True
    assert len(obj["checks"]) == len(CRITERION_NAMES)


def test_filtered_run_skips_runtime_line():
    rep = verify.run_all(filter_str="gauss")
    assert [r.name for r in rep.results] == ["09-gauss-bonnet"]


def test_filter_matching_no_criterion_is_an_error():
    # "time" is part of "runtime", which is not a criterion of its own
    with pytest.raises(ValueError, match="no criterion"):
        verify.run_all(filter_str="time")


def test_property_suite_checks_the_decomposition(monkeypatch):
    """Criterion 10 takes |W|^2 from decompose, so a broken split fails it."""
    real = verify.decompose

    def without_ricci_part(g, rm):
        weyl, ricci_part, scalar_part = real(g, rm)
        return weyl + ricci_part, 0 * ricci_part, scalar_part

    monkeypatch.setattr(verify, "decompose", without_ricci_part)
    result = verify.check_property_suites()
    assert not result.passed
    assert "pointwise quadratic identity defect" in result.measured


def test_full_run_leaves_numpy_random_unimported():
    """The random criteria sample with the standard library, so a verify
    process does not load numpy.random's extension modules (about 6 MB)."""
    import subprocess
    import sys

    code = ("import sys; from qcf import verify; assert verify.run_all(seed=3).all_passed; "
            "print('numpy.random' in sys.modules)")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "False"


def test_a_run_loads_the_catalog_once_and_only_when_a_criterion_needs_it(monkeypatch):
    calls = []
    real = verify.load_catalog
    monkeypatch.setattr(verify, "load_catalog", lambda: calls.append(1) or real())
    assert verify.run_all().all_passed and len(calls) == 1
    assert [r.name for r in verify.run_all(filter_str="symbol").results] == ["07-symbol"]
    assert len(calls) == 1
    verify.run_all(filter_str="-")
    assert len(calls) == 2
