"""The record contract: every qcf record type is an immutable value.

Records are NamedTuples (see the README): assignment raises
AttributeError, equal fields give equal and equally hashed records,
`_replace` builds a changed copy, and the three records that check
their fields (StabilityVerdict, TauInterval, StructureConstants) refuse
bad fields with ValueError, whether built directly or through
`_replace`.
"""

import inspect
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
        rational.conformal_killing_symbol(4),
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


_CHECKED = [stability.StabilityVerdict, stability.TauInterval, homogeneous.StructureConstants]


@pytest.mark.parametrize("cls", _CHECKED, ids=lambda c: c.__name__)
def test_checking_constructor_takes_the_fields_by_name(cls):
    """A checking record's __new__ names the fields in order, with the
    NamedTuple's defaults, so keyword and positional calls bind as the
    NamedTuple's own constructor binds them."""
    params = list(inspect.signature(cls.__new__).parameters.values())[1:]
    assert [p.name for p in params] == list(cls._fields)
    assert {p.name: p.default for p in params if p.default is not p.empty} == cls._field_defaults


def _checked_records():
    """(record, the same fields built positionally, by keyword, mixed,
    through _make and through _replace) for each checking record."""
    w, notes, prov = Fraction(3), ("n",), ("p",)
    verdict = stability.StabilityVerdict("FailsTT", w, notes, prov)
    lo, hi = Fraction(-1, 3), Fraction(1, 2)
    interval = stability.TauInterval(lo, hi, True, False, "a", "b", notes, "StableBoundOnly")
    su2 = homogeneous.su2()
    return [
        (verdict, [
            stability.StabilityVerdict(variant="FailsTT", witness=w, notes=notes, provenance=prov),
            stability.StabilityVerdict(provenance=prov, notes=notes, witness=w, variant="FailsTT"),
            stability.StabilityVerdict("FailsTT", w, provenance=prov, notes=notes),
            stability.StabilityVerdict._make(["FailsTT", w, notes, prov]),
            stability.StabilityVerdict("FailsTT", Fraction(5))._replace(
                witness=w, notes=notes, provenance=prov),
        ]),
        (interval, [
            stability.TauInterval(lo=lo, hi=hi, hi_open=False, lo_provenance="a",
                                  hi_provenance="b", notes=notes,
                                  verdict_inside="StableBoundOnly"),
            stability.TauInterval(lo, hi, hi_open=False, lo_provenance="a", hi_provenance="b",
                                  notes=notes, verdict_inside="StableBoundOnly"),
            stability.TauInterval._make([lo, hi, True, False, "a", "b", notes,
                                         "StableBoundOnly"]),
            stability.TauInterval(lo, None)._replace(
                hi=hi, hi_open=False, lo_provenance="a", hi_provenance="b", notes=notes,
                verdict_inside="StableBoundOnly"),
        ]),
        (su2, [
            homogeneous.StructureConstants(n=3, c=su2.c),
            homogeneous.StructureConstants(3, c=su2.c),
            homogeneous.StructureConstants._make([3, su2.c]),
            homogeneous.su2_plus_r()._replace(n=3, c=su2.c),
        ]),
    ]


@pytest.mark.parametrize("record,twins", _checked_records(),
                         ids=[cls.__name__ for cls in _CHECKED])
def test_checking_records_build_alike_every_way(record, twins):
    for twin in twins:
        assert type(twin) is type(record) and twin._fields == record._fields
        assert all(a is b for a, b in zip(twin, record)) or twin == record


def test_checking_constructors_refuse_what_the_namedtuple_refuses():
    """Missing, unknown, repeated and surplus fields raise TypeError as the
    NamedTuple's own constructor does."""
    for build in (lambda: stability.StabilityVerdict(),
                  lambda: stability.StabilityVerdict(variant="StrictlyStable", verdict="x"),
                  lambda: stability.StabilityVerdict("StrictlyStable", variant="Indeterminate"),
                  lambda: stability.StabilityVerdict("StrictlyStable", None, (), (), ()),
                  lambda: stability.StabilityVerdict._make(["StrictlyStable"] * 5),
                  lambda: stability.TauInterval(Fraction(0)),
                  lambda: stability.TauInterval(lo=None, hi=None, closed=True),
                  lambda: homogeneous.StructureConstants(3)):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("build,match", [
    (lambda: stability.StabilityVerdict(variant="Wobbly"), "unknown verdict"),
    (lambda: stability.StabilityVerdict(variant="FailsTT", witness=None), "witness"),
    (lambda: stability.StabilityVerdict("FailsTT", notes=("n",)), "witness"),
    (lambda: stability.StabilityVerdict._make(["FailsTT", None, (), ()]), "witness"),
    (lambda: stability.StabilityVerdict("StrictlyStable")._replace(variant="Wobbly"),
     "unknown verdict"),
    (lambda: stability.StabilityVerdict("StrictlyStable")._replace(variant="FailsTT"),
     "witness"),
    (lambda: stability.TauInterval(lo=Fraction(1), hi=Fraction(0)), "empty interval"),
    (lambda: stability.TauInterval(Fraction(1), hi=Fraction(0), notes=("n",)),
     "empty interval"),
    (lambda: stability.TauInterval._make([Fraction(1), Fraction(1)]), "empty interval"),
    (lambda: stability.TauInterval(None, Fraction(0))._replace(lo=Fraction(2)),
     "empty interval"),
    (lambda: homogeneous.StructureConstants(n=3, c=np.ones((3, 3, 3))), "antisymmetry"),
    (lambda: homogeneous.StructureConstants(2, c=homogeneous.su2().c), "n x n x n"),
    (lambda: homogeneous.StructureConstants._make([4, homogeneous.su2().c]), "n x n x n"),
    (lambda: homogeneous.su2()._replace(n=4), "n x n x n"),
])
def test_checking_records_refuse_bad_fields_however_built(build, match):
    with pytest.raises(ValueError, match=match):
        build()
