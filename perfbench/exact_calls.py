"""Run one exact-sweep query in-process and reduce its result to decisions.

Shared by the exact-sweep worker and by reference recording. Imports
qcf lazily so that the worker can time its own imports.
"""

from __future__ import annotations

from fractions import Fraction


def parse_tau(tau):
    """"p/q" strings stay exact; JSON numbers stay floats."""
    if isinstance(tau, str):
        num, _, den = tau.partition("/")
        return Fraction(int(num), int(den or 1))
    return float(tau)


def _ratio(x) -> str | None:
    if x is None:
        return None
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def prepare(query, cat):
    """Resolve a query's inputs before timing starts.

    Returns a zero-argument call that looks its function up on the qcf
    module at call time, so that span wrappers installed later are seen.
    """
    from qcf import spectral, stability, tensor_core, verify

    kind = query[0]
    if kind in ("verdict", "interval", "rigidity", "bach"):
        model = cat[query[1]]
        if kind == "verdict":
            tau = parse_tau(query[2])
            return lambda: stability.combined_verdict(model, tau)
        if kind == "interval":
            return lambda: stability.stability_interval(model)
        if kind == "rigidity":
            return lambda: stability.rigidity_exceptional_taus(model)
        return lambda: stability.bach_verdict(model)
    if kind == "symbol":
        _, n, tau, trials, trace_free = query
        tau = parse_tau(tau)

        def symbol():
            v = spectral.symbol_injectivity(n, tau, trials=trials, seed=0,
                                            restrict_trace_free=trace_free)
            return v, spectral.kernel_contains_metric(v, n)
        return symbol
    if kind == "invariants":
        model = cat[query[1]]

        def invariants():
            cd = model.curvature_data(exact=True)
            return tensor_core.quadratic_invariants(cd.g, cd.rm)
        return invariants
    if kind == "verify":
        return lambda: verify.run_all(seed=query[1])
    raise ValueError(f"unknown exact-sweep query {query!r}")


def decide(kind: str, out) -> dict:
    """The decision fields of a result, as JSON-ready values."""
    if kind == "verdict":
        return {"verdict": out.variant, "witness": _ratio(out.witness)}
    if kind == "interval":
        return {"lo": _ratio(out.lo), "hi": _ratio(out.hi), "lo_open": out.lo_open,
                "hi_open": out.hi_open, "verdict_inside": out.verdict_inside}
    if kind == "rigidity":
        return {"exceptional": [[_ratio(e.tau), _ratio(e.mu)] for e in out.exceptional]}
    if kind == "bach":
        return {"rigid": out.rigid, "strict_weyl_min": out.strict_weyl_min,
                "targets": [_ratio(t) for t in out.targets]}
    if kind == "symbol":
        v, contains_g = out
        return {"injective": v.injective, "kernel_dimension": len(v.kernel),
                "kernel_contains_metric": contains_g,
                "min_singular_value": float(v.min_singular_value)}
    if kind == "invariants":
        return {k: _ratio(v) for k, v in sorted(out.items())}
    if kind == "verify":
        return {"checks": [[r.name, r.passed] for r in out.results],
                "all_passed": out.all_passed}
    raise ValueError(kind)

