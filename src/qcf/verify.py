"""Self-verification suite: every acceptance check, one pass/fail record each.

Each criterion is a function returning a CheckResult with the measured
and expected values; the runner executes them in order, optionally
filtered by substring, and returns a VerifyReport of the results and the
elapsed time. `cli` renders it, one line per criterion (timing goes to
stderr so that stdout stays byte-identical across runs).
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from qcf import functionals, homogeneous, rational, spectral, stability
from qcf.catalog import (CatalogError, builtin_catalog, load_catalog)
from qcf.rational import tau1, tau2
from qcf.tensor_core import (check_curvature_symmetries, decompose, gauss_bonnet_integrand,
                             inverse_metric, quadratic_invariants, tensor_norm2, vanishes)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: str
    expected: str


def _catalog():
    """(catalog, None), or the builtin catalog and the load error."""
    try:
        return load_catalog(), None
    except CatalogError as exc:
        return builtin_catalog(), exc


def check_catalog(loaded=None) -> CheckResult:
    _, err = loaded or _catalog()
    if err is None:
        return CheckResult("00-catalog", True,
                           "catalog loaded, all cross-identities hold",
                           "cross-validated catalog")
    return CheckResult("00-catalog", False, str(err), "cross-validated catalog")


def check_intervals(loaded=None) -> CheckResult:
    cat, _ = loaded or _catalog()
    expected: dict[str, tuple] = {}
    expected["sphere:3"] = (Fraction(-3, 8), Fraction(1, 3), True, True)
    for n in range(4, 9):
        expected[f"sphere:{n}"] = (tau1(n), Fraction(2, n * (n - 1)), True, True)
    expected["quotient:4:2"] = (Fraction(-1, 3), Fraction(1, 6), True, True)
    for m in (2, 3, 4):
        expected[f"cp:{m}"] = (tau1(2 * m), Fraction(1, m * (m + 1)), True, True)
        expected[f"product:{m}"] = (tau1(2 * m),
                                    Fraction(2 - m, 2 * m * (m - 1)), True, True)
    for n in (3, 4):
        expected[f"hyperbolic:{n}"] = (Fraction(-1, 3), None, True, True)
    for n in range(5, 9):
        expected[f"hyperbolic:{n}"] = (tau1(n), Fraction(-1, n), True, False)
    bad = []
    for key, (lo, hi, lo_open, hi_open) in sorted(expected.items()):
        iv = stability.stability_interval(cat[key])
        got = (iv.lo, iv.hi, iv.lo_open, iv.hi_open)
        if got != (lo, hi, lo_open, hi_open):
            bad.append(f"{key}: got {got}, want {(lo, hi, lo_open, hi_open)}")
    if bad:
        return CheckResult("01-intervals", False, "; ".join(bad),
                           "exact match on all endpoints and openness flags")
    return CheckResult("01-intervals", True,
                       f"{len(expected)} model intervals match exactly",
                       "exact match (zero tolerance)")


def check_berger_derivatives() -> CheckResult:
    issues = []
    curve = lambda tau: (lambda s: functionals.berger_curve(tau, s))
    ests = functionals.curve_derivatives(curve(Fraction(1, 3)), [1.0])[0]
    d1, d2, d3 = (e.value for e in ests)
    target3 = 5120.0 / 9.0
    if abs(d1) >= 1e-8:
        issues.append(f"|d1|={abs(d1):.3e} at tau=1/3")
    if abs(d2) >= 1e-6:
        issues.append(f"|d2|={abs(d2):.3e} at tau=1/3")
    if abs(d3 - target3) > 1e-3 * target3:
        issues.append(f"d3={d3:.6f} vs 5120/9 at tau=1/3")
    worst_d1 = abs(d1)
    worst_d2_rel = 0.0
    taus = [Fraction(k, 10) - 1 for k in range(20)]
    for t in taus:
        ests = functionals.curve_derivatives(curve(t), [1.0], max_order=2)[0]
        d1t, d2t = ests[0].value, ests[1].value
        worst_d1 = max(worst_d1, abs(d1t))
        want = 128.0 * (1.0 / 3.0 - float(t))
        rel = abs(d2t - want) / abs(want)
        worst_d2_rel = max(worst_d2_rel, rel)
        if abs(d1t) >= 1e-8:
            issues.append(f"|d1|={abs(d1t):.3e} at tau={t}")
        if rel > 1e-5:
            issues.append(f"d2 rel err {rel:.3e} at tau={t}")
    measured = (f"tau=1/3: d1={d1:.2e}, d2={d2:.2e}, d3={d3:.6f}; "
                f"20 taus: max|d1|={worst_d1:.2e}, "
                f"max d2 rel err={worst_d2_rel:.2e}")
    expected = ("|d1|<1e-8, |d2|<1e-6, d3=5120/9 within 0.1%; "
                "d2=128(1/3-tau) within 1e-5 relative")
    if issues:
        return CheckResult("02-berger-derivatives", False, "; ".join(issues), expected)
    return CheckResult("02-berger-derivatives", True, measured, expected)


def check_berger_secondary() -> CheckResult:
    tau = Fraction(-2, 5)
    pts = functionals.berger_critical_points(tau)
    exact_roots = [p.s_squared for p in pts]
    pts_f = functionals.berger_critical_points(-0.4)
    float_err = min(abs(float(p.s_squared) - 2.0 / 13.0) for p in pts_f)
    ok_root = Fraction(2, 13) in exact_roots and float_err < 1e-10

    s = math.sqrt(2.0 / 13.0)
    sc = homogeneous.su2(exact=False)
    g = homogeneous.berger_metric(s, exact=False)
    grad = homogeneous.gradient_F(sc, g, float(tau))
    vol = homogeneous.volume(sc, g, homogeneous.SU2_REFERENCE_VOLUME)
    fval = homogeneous.functional_value(sc, g, float(tau),
                                        homogeneous.SU2_REFERENCE_VOLUME)
    p = 4.0 / 3.0 - 1.0
    resid_t = grad + (p / 2.0) * (fval / vol) * g
    g_inv = np.linalg.inv(g)
    resid = math.sqrt(abs(tensor_norm2(g_inv, resid_t)))
    gnorm = math.sqrt(abs(tensor_norm2(g_inv, g)))
    rel = resid / gnorm
    ok_grad = rel < 1e-8
    measured = (f"root found exactly: {Fraction(2, 13) in exact_roots}, "
                f"float path err {float_err:.2e}; criticality residual {rel:.2e}")
    expected = "s^2 = 2/13 to 1e-10; |grad F + (p/2) Vol^-1 F g|/|g| < 1e-8"
    return CheckResult("03-berger-secondary-critical", ok_root and ok_grad,
                       measured, expected)


def check_kaehler_path() -> CheckResult:
    target = -64.0 * math.pi**2
    vals = functionals.product_sphere_curve(Fraction(-1, 2), np.linspace(-1.0, 1.0, 21))
    value_err = max(abs(v - target) for v in vals) / abs(target)
    spread = (max(vals) - min(vals)) / abs(target)
    ok = spread < 1e-10 and value_err < 1e-8
    return CheckResult(
        "04-product-kaehler-path", ok,
        f"relative spread {spread:.2e}, value error {value_err:.2e}",
        "constant to 1e-10 relative, value -64 pi^2 to 1e-8 relative")


def check_einstein_gradients(loaded=None) -> CheckResult:
    cat, _ = loaded or _catalog()
    bad = []
    for key in sorted(cat):
        model = cat[key]
        cd = model.curvature_data(exact=True)
        n, R = model.n, model.scal
        grad0 = homogeneous.gradient_from_einstein(cd, Fraction(0))
        grad1 = homogeneous.gradient_from_einstein(cd, Fraction(1))
        want0 = Fraction(n - 4, 2 * n * n) * R * R
        want_s = Fraction(n - 4, 2 * n) * R * R
        if not vanishes(grad0 - want0 * cd.g, 0.0):
            bad.append(f"{key} grad F0")
        if not vanishes(grad1 - grad0 - want_s * cd.g, 0.0):
            bad.append(f"{key} grad S")
    if bad:
        return CheckResult("05-einstein-gradients", False, "; ".join(bad),
                           "grad F_0 = (n-4)/(2n^2) R^2 g, grad S = (n-4)/(2n) R^2 g")
    return CheckResult("05-einstein-gradients", True,
                       f"exact equality on all {len(cat)} catalog models",
                       "grad F_0 = (n-4)/(2n^2) R^2 g, grad S = (n-4)/(2n) R^2 g "
                       "(exact, zero tolerance)")


def _sampler(seed: int) -> random.Random:
    """The seeded sampler of the random criteria.

    The standard library's: importing numpy.random alone adds about
    6 MB of extension modules to the resident size of a process.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return random.Random(seed)


def _solvable() -> homogeneous.StructureConstants:
    """The solvable algebra [e1,e2] = e2, [e1,e3] = e3 (hyperbolic 3-space as a group).

    Unlike su(2) and su(2)+R it is not unimodular (tr ad e1 = 2). A
    connection with its first two indices swapped leaves |delta grad F|
    at roundoff on those two, and gives values of order 10 here.
    """
    c = np.zeros((3, 3, 3))
    for k in (1, 2):
        c[0, k, k], c[k, 0, k] = 1.0, -1.0
    return homogeneous.StructureConstants(3, c)


def _diagonal(rows: list) -> np.ndarray:
    """The diagonal matrices with the given diagonals, as one stack."""
    d = np.array(rows)
    return d[..., None] * np.eye(d.shape[-1])


def _spd_draws(rng: random.Random, n: int, count: int) -> tuple[np.ndarray, list]:
    """count full SPD metrics a a^T + diag(d), a in [-1, 1]^(n x n) and d in
    [0.5, 2]^n, each drawn with a tau in [-1, 1]: the stack and the taus."""
    a, d, taus = [], [], []
    for _ in range(count):
        a.append([rng.uniform(-1.0, 1.0) for _ in range(n * n)])
        d.append([rng.uniform(0.5, 2.0) for _ in range(n)])
        taus.append(rng.uniform(-1.0, 1.0))
    a = np.array(a).reshape(count, n, n)
    aat = a @ np.swapaxes(a, -1, -2)
    return 0.5 * (aat + np.swapaxes(aat, -1, -2)) + _diagonal(d), taus


def check_divergence_free(seed: int = 0) -> CheckResult:
    rng = _sampler(seed)
    algebras = (homogeneous.su2(exact=False), homogeneous.su2_plus_r(exact=False), _solvable())
    # 100 diagonal metrics on su(2), then 50 full SPD metrics on each algebra,
    # every metric with its tau; one stack per algebra
    diag, taus = [], []
    for _ in range(100):
        diag.append([rng.uniform(0.5, 2.0) for _ in range(3)])
        taus.append(rng.uniform(-1.0, 1.0))
    full, full_taus = _spd_draws(rng, 3, 50)
    stacks = [(algebras[0], np.concatenate([_diagonal(diag), full]), taus + full_taus)]
    stacks += [(sc, *_spd_draws(rng, sc.n, 50)) for sc in algebras[1:]]
    worst, count = 0.0, 0
    for sc, g, taus in stacks:
        g_inv = inverse_metric(g)
        gam = homogeneous.levi_civita(sc, g, g_inv)
        grad = homogeneous.gradient_F(sc, g, np.array(taus), g_inv, gam)
        div = homogeneous.divergence(sc, g, grad, g_inv, gam)
        worst = max(worst, math.sqrt(float(np.max(np.abs(tensor_norm2(g_inv, div))))))
        count += len(g)
    return CheckResult("06-divergence-free", worst < 1e-9,
                       f"max |delta grad F_tau| = {worst:.2e} over {count} metrics",
                       "< 1e-9")


def check_symbol(seed: int = 0) -> CheckResult:
    rng = _sampler(seed)
    issues = []
    # 100 random (n, tau, unit xi) with tau = p/q more than 1/20 from
    # -n/(4(n-1)), grouped by n: one stacked symbol and SVD per dimension
    draws: dict[int, tuple[list, list]] = {}
    for _ in range(100):
        n = rng.randrange(3, 9)
        while True:
            p, q = rng.randrange(-20, 21), rng.randrange(1, 21)
            if 20 * abs(4 * (n - 1) * p + n * q) > 4 * (n - 1) * q:
                break
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        taus, xis = draws.setdefault(n, ([], []))
        taus.append(p / q)
        xis.append(v / np.linalg.norm(v))
    min_sv = math.inf
    for n, (taus, xis) in draws.items():
        svs = spectral.gauged_symbol(n, np.array(taus), np.array(xis)).min_singular_value()
        min_sv = min(min_sv, float(np.min(svs)))
    if min_sv <= 1e-6:
        issues.append(f"min singular value {min_sv:.2e} <= 1e-6")
    for n in (3, 4, 5):
        verdict = spectral.symbol_injectivity(n, tau2(n))
        if verdict.injective:
            issues.append(f"not degenerate at n={n}, tau=-n/(4(n-1))")
        elif not spectral.kernel_contains_metric(verdict, n):
            issues.append(f"metric direction missing from kernel at n={n}")
    ck_flags = []
    for n in range(2, 9):
        ck = rational.conformal_killing_symbol(n)
        ck_flags.append(ck.degenerate)
        if ck.degenerate != (n == 2):
            issues.append(f"conformal-Killing degeneracy wrong at n={n}")
    measured = (f"100 random triples: min SV {min_sv:.3e}; degenerate with "
                f"metric kernel at the threshold for n=3,4,5; CK degenerate "
                f"flags n=2..8: {ck_flags}")
    expected = ("min SV > 1e-6 away from -n/(4(n-1)); exact degeneracy with "
                "g in kernel at the threshold; conformal-Killing degenerate "
                "iff n = 2")
    return CheckResult("07-symbol", not issues,
                       "; ".join(issues) if issues else measured, expected)


def check_rigidity(loaded=None) -> CheckResult:
    cat, _ = loaded or _catalog()
    issues = []
    rep3 = stability.rigidity_exceptional_taus(cat["sphere:3"])
    if not rep3.exceptional or rep3.exceptional[0].tau != Fraction(1, 3):
        issues.append(f"sphere:3 first tau {rep3.exceptional[0].tau if rep3.exceptional else None}")
    repc = stability.rigidity_exceptional_taus(cat["cp:2"])
    if not repc.exceptional or repc.exceptional[0].tau != Fraction(1, 6):
        issues.append("cp:2 first tau wrong")
    repp = stability.rigidity_exceptional_taus(cat["product:2"])
    got = [e.tau for e in repp.exceptional]
    if got != [Fraction(-1, 2), Fraction(0)]:
        issues.append(f"product:2 taus {got}")
    for rep, key in ((rep3, "sphere:3"), (repc, "cp:2"), (repp, "product:2")):
        model = cat[key]
        for e in rep.exceptional:
            val = rational.tt_jacobi(model.n, model.scal, e.tau, e.mu)
            if val != 0:
                issues.append(f"{key}: tt polynomial {val} != 0 at "
                              f"(tau={e.tau}, mu={e.mu})")
    for key in ("sphere:4", "quotient:4:2", "cp:2", "product:2"):
        bv = stability.bach_verdict(cat[key])
        if bv.rigid is not True:
            issues.append(f"{key} not Bach-rigid: {bv.rigid}")
    measured = ("sphere:3 tau_1 = 1/3; cp:2 tau_1 = 1/6; product:2 taus "
                "{-1/2, 0}; all tt-polynomial zeros exact; Bach-rigid: "
                "sphere:4, quotient:4:2, cp:2, product:2")
    expected = "first exceptional values and exact kernel roots; Bach verdicts rigid"
    return CheckResult("08-rigidity", not issues,
                       "; ".join(issues) if issues else measured, expected)


def check_gauss_bonnet(loaded=None) -> CheckResult:
    cat, _ = loaded or _catalog()
    issues = []
    details = []
    cds = {}
    for key in ("sphere:4", "product:2"):
        model = cat[key]
        cd = cds[key] = model.curvature_data(exact=True)
        density = gauss_bonnet_integrand(cd.g, cd.rm)
        vol = float(model.volume)
        lhs = vol * float(density)
        rhs = 32.0 * math.pi**2 * model.euler_char
        rel = abs(lhs - rhs) / abs(rhs)
        details.append(f"{key}: rel err {rel:.2e}")
        if rel > 1e-10:
            issues.append(f"{key}: {lhs} vs {rhs}")
    w2 = cds["product:2"].invariants()["weyl2"]
    if w2 != Fraction(16, 3):
        issues.append(f"|W|^2(S2xS2) = {w2} != 16/3")
    details.append("|W|^2(S2xS2) = 16/3 exactly")
    return CheckResult("09-gauss-bonnet", not issues,
                       "; ".join(issues) if issues else "; ".join(details),
                       "Vol*(|W|^2 - 2|Ric|^2 + (2/3)R^2) = 32 pi^2 chi to "
                       "1e-10 relative; |W|^2(S2xS2) = 16/3")


def check_property_suites(seed: int = 0) -> CheckResult:
    rng = _sampler(seed)
    issues = []
    # curvature symmetries + pointwise quadratic identity, 100 random
    # metrics drawn in turn on su(2) and su(2)+R, checked as one stack each
    worst_rmf = 0.0
    algebras = (homogeneous.su2(exact=False), homogeneous.su2_plus_r(exact=False))
    diagonals = ([], [])
    for k in range(100):
        diagonals[k % 2].append([rng.uniform(0.5, 2.0) for _ in range(algebras[k % 2].n)])
    for sc, rows in zip(algebras, diagonals):
        n, g = sc.n, _diagonal(rows)
        cd = homogeneous.curvature(sc, g)
        try:
            check_curvature_symmetries(cd.rm, tol=1e-10)
        except ValueError as exc:
            issues.append(f"curvature symmetry: {exc}")
            break
        inv = quadratic_invariants(g, cd.rm)
        # |W|^2 by the tensor route, so the identity checks the decomposition
        weyl2 = tensor_norm2(cd.g_inv, decompose(g, cd.rm)[0])
        lhs = (n - 2) / 4.0 * (inv["rm2"] - weyl2)
        rhs = inv["ric2"] - inv["scal"] ** 2 / (2.0 * (n - 1))
        scale = np.maximum(np.abs(rhs), 1.0)
        worst_rmf = max(worst_rmf, float(np.max(np.abs(lhs - rhs) / scale)))
    if worst_rmf >= 1e-9:
        issues.append(f"pointwise quadratic identity defect {worst_rmf:.2e}")
    # factorization identities, 200 random exact inputs R = r/s, tau = p/q,
    # mu = lambda = m/d; each factored side is one quotient of integers
    for _ in range(200):
        n = rng.randrange(3, 9)
        r, s = rng.randrange(-60, 61), rng.randrange(1, 13)
        p, q = rng.randrange(-40, 41), rng.randrange(1, 13)
        m, d = rng.randrange(-60, 61), rng.randrange(1, 13)
        R, t, mu = Fraction(r, s), Fraction(p, q), Fraction(m, d)
        lhs = rational.tt_jacobi(n, R, t, mu)
        # (1/2)(2R/n - mu)((4/n + 2 tau)R - mu)
        rhs = Fraction((2 * r * d - n * s * m) * ((4 * q + 2 * n * p) * r * d - n * q * s * m),
                       2 * n * n * q * s * s * d * d)
        if lhs != rhs:
            issues.append(f"tt factorization fails at n={n}, R={R}, tau={t}, mu={mu}")
            break
        lam = mu
        pc = rational.conformal_polynomial(n, R, t)
        # (1/2n)((n-1)lambda - R)(n(n - 4 tau + 4n tau)lambda + 2(n-4)(1 + n tau)R)
        second = n * (n * q + 4 * (n - 1) * p) * m * s + 2 * (n - 4) * (q + n * p) * r * d
        rhs2 = Fraction(((n - 1) * m * s - r * d) * second, 2 * n * q * d * d * s * s)
        if pc(lam) != rhs2:
            issues.append(f"conformal factorization fails at n={n}")
            break
    # formal tau -> infinity consistency, exact
    for n in range(3, 9):
        for Rnum in (-12, -1, 0, 5, 24):
            R = Fraction(Rnum)
            p0 = rational.conformal_polynomial(n, R, Fraction(0))
            p1 = rational.conformal_polynomial(n, R, Fraction(1))
            slope = (p1.c0 - p0.c0, p1.c1 - p0.c1, p1.c2 - p0.c2)
            ps = rational.conformal_s_polynomial(n, R)
            if slope != (ps.c0, ps.c1, ps.c2):
                issues.append(f"tau-slope vs S-polynomial mismatch at n={n}, R={R}")
    measured = (f"symmetries + pointwise identity (max defect {worst_rmf:.1e}) "
                "on 100 random metrics; 200 exact factorization checks; "
                "S-polynomial is the exact tau-slope")
    expected = ("identity defect < 1e-9; factorizations exact; "
                "tau->infinity limit exact")
    return CheckResult("10-property-suites", not issues,
                       "; ".join(issues) if issues else measured, expected)


# each criterion is called with the seed and a function that returns
# _catalog()'s pair, loaded on the first call of a run and then shared
CRITERIA = [
    ("00-catalog", lambda seed, loaded: check_catalog(loaded())),
    ("01-intervals", lambda seed, loaded: check_intervals(loaded())),
    ("02-berger-derivatives", lambda seed, loaded: check_berger_derivatives()),
    ("03-berger-secondary-critical", lambda seed, loaded: check_berger_secondary()),
    ("04-product-kaehler-path", lambda seed, loaded: check_kaehler_path()),
    ("05-einstein-gradients", lambda seed, loaded: check_einstein_gradients(loaded())),
    ("06-divergence-free", lambda seed, loaded: check_divergence_free(seed)),
    ("07-symbol", lambda seed, loaded: check_symbol(seed)),
    ("08-rigidity", lambda seed, loaded: check_rigidity(loaded())),
    ("09-gauss-bonnet", lambda seed, loaded: check_gauss_bonnet(loaded())),
    ("10-property-suites", lambda seed, loaded: check_property_suites(seed)),
]


class VerifyReport(NamedTuple):
    results: list[CheckResult]
    elapsed: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_all(filter_str: str | None = None, seed: int = 0) -> VerifyReport:
    t0 = time.monotonic()
    selected = [(name, fn) for name, fn in CRITERIA
                if not filter_str or filter_str in name]
    if not selected:
        raise ValueError(f"no criterion name contains {filter_str!r}")
    loaded = functools.cache(_catalog)
    results = [fn(seed, loaded) for _, fn in selected]
    elapsed = time.monotonic() - t0
    if len(selected) == len(CRITERIA):
        results.append(CheckResult(
            "runtime", elapsed < 60.0,
            "full suite under 60 s: " + ("yes" if elapsed < 60.0 else "no"),
            "under 60 seconds"))
    return VerifyReport(results, elapsed)
