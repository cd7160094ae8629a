"""The record contract: every qcf record type is an immutable value.

Records are NamedTuples (see the README): assignment raises
AttributeError, equal fields give equal and equally hashed records,
`_replace` builds a changed copy, and the three records that check
their fields (StabilityVerdict, TauInterval, StructureConstants) refuse
bad fields with ValueError, whether built directly or through
`_replace`.
"""

from fractions import Fraction

import numpy as np
import pytest

from qcf import catalog, functionals, homogeneous, rational, spectral, stability, verify


def _numpy_free_records():
    """One instance of each record type that holds no array, built from
    the code that makes it where that is cheap."""
    cat = catalog.builtin_catalog()
    sphere = cat["sphere:4"]
    return [
        sphere.volume, sphere.tt.known[0], sphere.tt, sphere,
        stability.combined_verdict(sphere, Fraction(0)),
        stability.stability_interval(sphere),
        stability.rigidity_exceptional_taus(cat["product:2"]).exceptional[0],
        stability.rigidity_exceptional_taus(cat["product:2"]),
        stability.bach_verdict(sphere),
        stability.reverse_bishop(10.0, 4, 11.0, True, True, 3000.0),
        rational.tt_polynomial(4, Fraction(12), Fraction(0)),
        rational.conformal_killing_symbol(4, [1.0, 0.0, 0.0, 0.0]),
        functionals.berger_critical_points(Fraction(1, 3))[0],
        functionals.DerivativeEstimate(1, 0.5, 1e-9),
        spectral.InjectivityVerdict(True, 0.5),
        verify.CheckResult("00-catalog", True, "measured", "expected"),
        verify.VerifyReport([verify.CheckResult("00-catalog", True, "m", "e")], 0.25),
    ]


def _all_records():
    op = spectral.gauged_symbol(3, Fraction(1, 3), np.array([1, 0, 0]))
    return _numpy_free_records() + [op, homogeneous.su2()]


@pytest.mark.parametrize("record", _all_records(), ids=lambda r: type(r).__name__)
def test_record_is_immutable(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", _numpy_free_records(), ids=lambda r: type(r).__name__)
def test_record_compares_and_hashes_by_value(record):
    twin = type(record)(*record)
    assert twin == record and twin is not record
    if type(record) is not verify.VerifyReport:  # holds a list
        assert hash(twin) == hash(record)
    name = record._fields[-1]
    changed = record._replace(**{name: "changed"})
    assert type(changed) is type(record)
    assert getattr(changed, name) == "changed" and changed != record
    assert changed._replace(**{name: getattr(record, name)}) == record


def test_default_fields():
    assert spectral.InjectivityVerdict(True, 0.5).kernel == ()
    assert catalog.ModelSpace("k", "torus", 3).lambda1 is None
    assert stability.StabilityVerdict("StrictlyStable").notes == ()


@pytest.mark.parametrize("build,match", [
    (lambda: stability.StabilityVerdict("Wobbly"), "unknown verdict"),
    (lambda: stability.StabilityVerdict(variant="FailsTT"), "witness"),
    (lambda: stability.StabilityVerdict("FailsTT", Fraction(3))._replace(witness=None),
     "witness"),
    (lambda: stability.TauInterval(Fraction(1), Fraction(0)), "empty interval"),
    (lambda: stability.TauInterval(lo=Fraction(1), hi=Fraction(1)), "empty interval"),
    (lambda: stability.TauInterval(Fraction(0), None)._replace(hi=Fraction(-1)),
     "empty interval"),
    (lambda: homogeneous.StructureConstants(3, np.ones((3, 3, 3))), "antisymmetry"),
    (lambda: homogeneous.StructureConstants(2, homogeneous.su2().c), "n x n x n"),
    (lambda: homogeneous.su2()._replace(c=np.ones((3, 3, 3))), "antisymmetry"),
])
def test_checking_records_refuse_bad_fields(build, match):
    with pytest.raises(ValueError, match=match):
        build()
