"""The interval and the point verdict agree at every tau, decided exactly.

combined_verdict is piecewise constant in tau: its value changes only at
- the conformal thresholds: tau2, where the second factor's slope vanishes;
  -1/n, where its constant term does; and tau1, where it vanishes at the
  Lichnerowicz bound lambda = R/(n-1);
- the TT contacts tau(mu), where the moving root of the TT polynomial meets a
  known eigenvalue, the tail bound or the fixed root 2R/n;
- the root in tau of the conformal second factor at each of the first 60
  function eigenvalues (the witness scan's range) and at lambda_1.

Every breakpoint here is derived from rational's TT and conformal polynomials,
not from stability, so the check tests stability rather than repeating it. At
each breakpoint, near both sides of it, inside each cell and beyond both ends,
the verdict must pass exactly inside the interval, with the interval's verdict,
and must be constant across each cell; each interval end must be a breakpoint.
The flat tori follow today's rule, stated in test_tori_fail_tt_at_every_tau.
"""

import time
from fractions import Fraction

import pytest
from conftest import contains
from test_properties import _EXTENSION_KEYS, _extension

from qcf import stability
from qcf.catalog import builtin_catalog, function_spectrum
from qcf.rational import conformal_polynomial, tau2, tt_polynomial
from qcf.stability import InsufficientSpectralData, combined_verdict, stability_interval

# one more known TT eigenvalue at 2R/n + v (tail - 2R/n), as in test_properties:
# below the fixed root, on it, between it and the tail, on the tail and past it
_EXTENSION_V = [Fraction(v) for v in ("-1", "-1/2", "0", "1/4", "1/2", "3/4", "1", "2")]
_MODELS = list(builtin_catalog().values()) + [
    _extension(key, v) for key in _EXTENSION_KEYS for v in _EXTENSION_V]
_PASSING = ("StrictlyStable", "StableBoundOnly")


def _affine_root(f):
    """The root of f, an affine function of tau, or None where f is constant."""
    f0, f1 = f(Fraction(0)), f(Fraction(1))
    assert f(Fraction(2)) == 2 * f1 - f0, "not affine in tau"
    return None if f0 == f1 else f0 / (f0 - f1)


def _root_in_tau(poly, x):
    """The tau where x is a root of the polynomial poly(tau), or, where x is a
    root at every tau, where it is a double root; None where neither moves."""
    root = _affine_root(lambda t: poly(t)(x))
    if root is None and poly(Fraction(0))(x) == 0:
        root = _affine_root(lambda t: 2 * poly(t).c2 * x + poly(t).c1)
    return root


def _breakpoints(model) -> list[Fraction]:
    n, R, tt = model.n, model.scal, model.tt

    def tt_poly(t):
        return tt_polynomial(n, R, t)

    def conf(t):
        return conformal_polynomial(n, R, t)

    cuts = [_affine_root(lambda t: conf(t).c2), _root_in_tau(conf, Fraction(0)),
            _root_in_tau(conf, R / (n - 1))]
    mus = [e.mu for e in tt.known] + [tt.tail_bound, 2 * R / n]
    cuts += [_root_in_tau(tt_poly, mu) for mu in mus]
    lams = function_spectrum(model, 60) if model.family.spectrum is not None else []
    cuts += [_root_in_tau(conf, lam) for lam in lams + [model.lambda1] if lam is not None]
    return sorted({c for c in cuts if c is not None})


def _verdict(model, tau):
    """The verdict's variant and witness, or the missing-data refusal."""
    try:
        v = combined_verdict(model, tau)
    except InsufficientSpectralData:
        return "InsufficientSpectralData", None
    return v.variant, v.witness


def _cell_problems(model) -> list[str]:
    """Where the interval and the verdicts disagree over the tau cells of model."""
    cuts = _breakpoints(model)
    eps = min([Fraction(1, 4000)] + [(b - a) / 3 for a, b in zip(cuts, cuts[1:])])
    cells = [[cuts[0] - 1, cuts[0] - eps]] + [
        [a + eps, (a + b) / 2, b - eps] for a, b in zip(cuts, cuts[1:])] + [
        [cuts[-1] + eps, cuts[-1] + 1]]
    iv = stability_interval(model)
    problems = [f"{model.key}: interval end {end} is no breakpoint"
                for end in (iv.lo, iv.hi) if end is not None and end not in cuts]
    for cell in cells + [[b] for b in cuts]:
        seen = {tau: _verdict(model, tau) for tau in cell}
        if len(set(seen.values())) > 1:
            problems.append(f"{model.key}: verdicts change inside a cell: {seen}")
        for tau, (variant, _) in seen.items():
            # a verdict passes exactly where the interval passes, with its verdict
            want = (iv.verdict_inside if contains(iv, tau) and iv.verdict_inside in _PASSING
                    else None)
            if (variant if variant in _PASSING else None) != want:
                problems.append(f"{model.key}: tau {tau} gives {variant}, interval {iv}")
    return problems


def test_interval_agrees_with_the_verdict_in_every_tau_cell():
    """Every built-in and every extension model, each breakpoint, both sides of
    it and each cell, in under 2 s."""
    assert len(_MODELS) >= 25 + 60
    start = time.perf_counter()
    problems = [p for model in _MODELS for p in _cell_problems(model)]
    elapsed = time.perf_counter() - start
    assert problems == []
    assert elapsed < 2, f"{elapsed:.2f} s"


def test_tori_fail_tt_at_every_tau():
    """Today's torus rule: on every flat torus 2R/n = 0 is a known TT
    eigenvalue (parallel trace-free tensors), so every point verdict is
    FailsTT with witness 0, while the interval reports the conformal range
    with Indeterminate inside."""
    cat = builtin_catalog()
    for n in range(3, 9):
        model = cat[f"torus:{n}"]
        iv = stability_interval(model)
        assert (iv.lo, iv.hi, iv.verdict_inside) == (tau2(n), None, "Indeterminate")
        assert "parallel trace-free tensors" in iv.notes[0]
        cuts = _breakpoints(model)
        assert cuts == [tau2(n)]
        for tau in (cuts[0] - 1, cuts[0] - Fraction(1, 4000), cuts[0],
                    cuts[0] + Fraction(1, 4000), cuts[0] + 1):
            assert _verdict(model, tau) == ("FailsTT", 0), (n, tau)


def _shift_ladder(monkeypatch, key, index, shift):
    """Move one threshold of a _LADDER row."""
    ladder = dict(stability._LADDER)
    row = list(ladder[key])
    row[index] = (Fraction(*row[index]) + shift).as_integer_ratio()
    ladder[key] = tuple(row)
    monkeypatch.setattr(stability, "_LADDER", ladder)


@pytest.mark.parametrize("mutate,key", [
    (lambda mp: _shift_ladder(mp, (1, 3), 0, Fraction(1, 1000)), "sphere:3"),
    (lambda mp: _shift_ladder(mp, (1, 3), 1, Fraction(1, 1000)), "sphere:3"),
    (lambda mp: _shift_ladder(mp, (-1, 3), 1, Fraction(-1, 1000)), "hyperbolic:3"),
    (lambda mp: mp.setattr(stability, "_contact_tau", lambda model, mu, f=stability._contact_tau:
                           f(model, mu) + Fraction(1, 1000)), "sphere:4"),
    (lambda mp: mp.setattr(stability, "tau2", lambda n, f=stability.tau2:
                           f(n) - Fraction(1, 1000)), "torus:5"),
])
def test_the_cell_check_fails_a_shifted_threshold_or_contact(monkeypatch, mutate, key):
    """A threshold or a contact moved by 1/1000 in stability alone, with the
    interval and the verdict moved together, fails the cell check."""
    model = builtin_catalog()[key]
    assert _cell_problems(model) == []
    mutate(monkeypatch)
    stability._ladder_row.cache_clear()  # the rows are resolved once per dimension
    try:
        assert _cell_problems(model) != []
    finally:
        monkeypatch.undo()
        stability._ladder_row.cache_clear()
