"""Command-line surface: tables, curve sweeps, and the self-check suite.

Every command emits deterministic output for a fixed argv and seed.
Exact thresholds travel as ratio strings ("p/q"); JSON reports carry a
"kind" field and validate against qcf/schemas/report.schema.json before
being printed. Exit codes: 0 success, 1 verification failure, 2 invalid
input, 3 insufficient spectral data.

Only the numpy-free modules are imported here. The commands that need
numpy (grad, symbol without --conformal-killing, verify) import it, and
the modules built on it, when they run, and jsonschema is imported only
to validate a JSON report. No command loads concurrent.futures (or the
logging it imports): every curve sweep runs on one thread.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from fractions import Fraction
from importlib import resources

import click

from qcf import functionals, rational, stability
from qcf.catalog import CatalogError, load_catalog, resolve_model
from qcf.functionals import IllConditionedDerivativeError
from qcf.rational import format_ratio, parse_ratio
from qcf.stability import InsufficientSpectralData

_REPORT_SCHEMA: dict | None = None


def __getattr__(name: str):
    # no qcf code looks this name up: the benchmark tracer subclasses
    # qcf.cli.ThreadPoolExecutor, so the hook stays until that tracer drops it
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _report_schema() -> dict:
    global _REPORT_SCHEMA
    if _REPORT_SCHEMA is None:
        text = resources.files("qcf").joinpath("schemas/report.schema.json").read_text()
        _REPORT_SCHEMA = json.loads(text)
    return _REPORT_SCHEMA


def _emit_json(obj: dict) -> None:
    import jsonschema

    jsonschema.validate(obj, _report_schema())
    click.echo(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


def _require_finite(values) -> None:
    """Refuse to print a float result that overflowed to inf or nan.

    Huge or tiny finite inputs can overflow the float evaluation; that
    is reported as bad input (exit 2), never printed with exit 0.
    """
    if not all(math.isfinite(float(v)) for v in values):
        raise ValueError("result is not finite at this input (float overflow)")


class RatioType(click.ParamType):
    """Accepts exact 'p/q' syntax, integers, and decimal literals.

    Every finite literal parses to an exact ratio, so thresholds like 1/3
    survive; inf and nan are rejected.
    """

    name = "ratio"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_ratio(str(value))
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a finite 'p/q' or decimal", param, ctx)


RATIO = RatioType()


class FiniteFloat(click.types.FloatParamType):
    """A float that must be finite, and positive when ``positive`` is set."""

    def __init__(self, positive: bool = False):
        self.positive = positive

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not finite", param, ctx)
        if self.positive and x <= 0:
            self.fail(f"{value!r} is not positive", param, ctx)
        return x


FINITE = FiniteFloat()
POSITIVE = FiniteFloat(positive=True)


def _tau_json(tau):
    return format_ratio(tau) if isinstance(tau, (int, Fraction)) else float(tau)


def guarded(fn):
    """Map domain errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InsufficientSpectralData as exc:
            click.echo(f"insufficient data: {exc}", err=True)
            sys.exit(3)
        except OverflowError:
            # from math.exp and **, whose own text does not say what overflowed
            click.echo("error: float overflow at this input", err=True)
            sys.exit(2)
        except (CatalogError, IllConditionedDerivativeError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def model_options(fn):
    fn = click.option("--order", type=int, default=None,
                      help="Quotient order (quotient models).")(fn)
    fn = click.option("--m", "m_", type=int, default=None,
                      help="Complex dimension / factor dimension for cp and product models.")(fn)
    fn = click.option("--dim", type=int, default=None,
                      help="Dimension for sphere, hyperbolic, torus, quotient models.")(fn)
    fn = click.option("--model", required=True,
                      help="Catalog key ('sphere:4') or family name plus --dim/--m.")(fn)
    return fn


@click.group()
def main() -> None:
    """Stability, rigidity, and curve data for quadratic curvature functionals."""


# ---------------------------------------------------------------------------
# intervals


def _interval_text(ms, iv) -> str:
    lo = format_ratio(iv.lo) if iv.lo is not None else "-inf"
    hi = format_ratio(iv.hi) if iv.hi is not None else "inf"
    lb = "(" if iv.lo_open else "["
    rb = ")" if iv.hi_open else "]"
    lines = [f"{ms.display_name}: tau in {lb}{lo}, {hi}{rb} -> {iv.verdict_inside}",
             f"  lower endpoint: {iv.lo_provenance}",
             f"  upper endpoint: {iv.hi_provenance}"]
    lines.extend(f"  note: {note}" for note in iv.notes)
    return "\n".join(lines)


def _verdict_text(ms, tau, v) -> str:
    head = f"{ms.display_name} at tau = {_tau_json(tau)}: {v.variant}"
    if v.witness is not None:
        head += f" (witness {format_ratio(v.witness)})"
    lines = [head]
    lines.extend(f"  note: {note}" for note in v.notes)
    lines.extend(f"  via: {p}" for p in v.provenance)
    return "\n".join(lines)


@main.command()
@model_options
@click.option("--tau", type=RATIO, default=None,
              help="Report the verdict at this tau instead of the interval.")
@click.option("--lambda1", "lambda1_", type=RATIO, default=None,
              help="First nonzero Laplace eigenvalue on functions, for branches that need it.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
@guarded
def intervals(model, dim, m_, order, tau, lambda1_, fmt) -> None:
    """Strict-stability tau interval of a catalog model, or a point verdict."""
    if lambda1_ is not None and tau is None:
        # the interval does not depend on lambda1 (yet), so it would be dropped
        raise ValueError("--lambda1 applies only with --tau")
    cat = load_catalog()
    ms = resolve_model(cat, model, dim, m_, order)
    if tau is not None:
        lam = lambda1_ if lambda1_ is None else Fraction(lambda1_)
        v = stability.combined_verdict(ms, tau, lambda1_override=lam)
        obj = {"kind": "verdict", **stability.verdict_to_json(ms, tau, v)}
        if fmt == "json":
            _emit_json(obj)
        elif fmt == "csv":
            click.echo("model,tau,verdict,witness")
            wit = format_ratio(v.witness) if v.witness is not None else ""
            click.echo(f"{ms.key},{_tau_json(tau)},{v.variant},{wit}")
        else:
            click.echo(_verdict_text(ms, tau, v))
        return
    iv = stability.stability_interval(ms)
    if fmt == "json":
        _emit_json({"kind": "interval", **stability.interval_to_json(ms, iv)})
    elif fmt == "csv":
        lo = format_ratio(iv.lo) if iv.lo is not None else "-inf"
        hi = format_ratio(iv.hi) if iv.hi is not None else "inf"
        click.echo("model,lo,hi,lo_open,hi_open,verdict_inside")
        click.echo(f"{ms.key},{lo},{hi},{iv.lo_open},{iv.hi_open},{iv.verdict_inside}")
    else:
        click.echo(_interval_text(ms, iv))


# ---------------------------------------------------------------------------
# rigidity


@main.command()
@model_options
@click.option("--count", type=click.IntRange(1, 64), default=8,
              help="How many exceptional values to list.")
@click.option("--mu", "mus", type=RATIO, multiple=True,
              help="Extra TT eigenvalues (repeatable), for bound-only models.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
@guarded
def rigidity(model, dim, m_, order, count, mus, fmt) -> None:
    """Exceptional tau values where the gauged kernel jumps; Bach verdict at n=4."""
    cat = load_catalog()
    ms = resolve_model(cat, model, dim, m_, order)
    rep = stability.rigidity_exceptional_taus(
        ms, count=count, mu_list=[Fraction(m) for m in mus] or None)
    obj = {"kind": "rigidity", **rep.to_json()}
    bach = stability.bach_verdict(ms) if ms.n == 4 else None
    if bach is not None:
        obj["bach"] = bach.to_json()
    if fmt == "json":
        _emit_json(obj)
        return
    if fmt == "csv":
        click.echo("tau,mu,kernel")
        for e in rep.exceptional:
            kernel = e.kernel_note.replace(",", ";")
            click.echo(f"{format_ratio(e.tau)},{format_ratio(e.mu)},{kernel}")
        return
    lines = [f"{ms.display_name}: exceptional tau values"]
    for e in rep.exceptional:
        line = f"  tau = {format_ratio(e.tau)} (mu = {format_ratio(e.mu)})"
        if e.kernel_note:
            line += f" -- {e.kernel_note}"
        lines.append(line)
    if not rep.exceptional:
        lines.append("  none from catalog data")
    lines.extend(f"  note: {note}" for note in rep.notes)
    if bach is not None:
        flag = {True: "yes", False: "no", None: "undecided"}
        lines.append(f"  Bach-rigid: {flag[bach.rigid]}; strict Weyl minimizer: "
                     f"{flag[bach.strict_weyl_min]} (targets "
                     f"{', '.join(format_ratio(t) for t in bach.targets)})")
        lines.extend(f"  note: {note}" for note in bach.notes)
    click.echo("\n".join(lines))


# ---------------------------------------------------------------------------
# berger


def _derivatives(fn, params: list[float], order: int) -> list[list]:
    """curve_derivatives; a stencil crossing s = 0 from s > 0 gets an error naming its reach."""
    try:
        return functionals.curve_derivatives(fn, params, max_order=order)
    except ValueError:  # from berger_curve, at the first s whose stencil reaches s <= 0
        reach = 2 * functionals.BASE_STEP
        s = next((p for p in params if not p - reach > 0), 0.0)
        if s > 0:
            raise ValueError(f"the derivative stencil reaches {reach:g} below s = {s!r}, "
                             f"past s = 0; use s > {reach:g} or --derivatives 0") from None
        raise


@main.command()
@click.option("--tau", type=RATIO, required=True)
@click.option("--at", "at_", type=FINITE, default=1.0,
              help="Berger parameter s at which to evaluate.")
@click.option("--derivatives", type=click.IntRange(0, 3), default=3,
              help="Highest derivative order to estimate (0 = value only).")
@click.option("--critical", is_flag=True, default=False,
              help="Also list the critical parameters of the curve.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
@guarded
def berger(tau, at_, derivatives, critical, fmt) -> None:
    """Berger-family functional value and finite-difference derivatives."""
    fn = lambda s: functionals.berger_curve(tau, s)
    value = fn([at_])[0]
    ests = _derivatives(fn, [at_], derivatives)[0] if derivatives else []
    pts = functionals.berger_critical_points(tau) if critical else None
    _require_finite([value] + [x for e in ests for x in (e.value, e.error)]
                    + [p.s for p in pts or []])
    if fmt == "json":
        obj = {
            "kind": "berger",
            "tau": _tau_json(tau),
            "at": at_,
            "value": value,
            "derivatives": [
                {"order": e.order, "value": e.value, "error": e.error}
                for e in ests
            ],
        }
        if pts is not None:
            obj["critical_points"] = [
                {"s_squared": (format_ratio(p.s_squared)
                               if isinstance(p.s_squared, Fraction)
                               else float(p.s_squared)),
                 "s": p.s, "multiplicity": p.multiplicity}
                for p in pts
            ]
        _emit_json(obj)
        return
    lines = [f"f_tau({functionals.format_float(at_)}) = "
             f"{functionals.format_float(value)} at tau = {_tau_json(tau)}"]
    for e in ests:
        lines.append(f"  d{e.order} = {functionals.format_float(e.value)} "
                     f"(error estimate {e.error:.3e})")
    if pts is not None:
        for p in pts:
            s2 = (format_ratio(p.s_squared) if isinstance(p.s_squared, Fraction)
                  else functionals.format_float(p.s_squared))
            mult = f", multiplicity {p.multiplicity}" if p.multiplicity > 1 else ""
            lines.append(f"  critical: s^2 = {s2} (s = "
                         f"{functionals.format_float(p.s)}{mult})")
    click.echo("\n".join(lines))


# ---------------------------------------------------------------------------
# curve sweeps


def _linspace(start: float, stop: float, points: int) -> list[float]:
    """np.linspace(start, stop, points), points >= 2, by the same float operations."""
    div, step = points - 1, (stop - start) / (points - 1)
    return [i / div * (stop - start) + start if step == 0 else i * step + start
            for i in range(div)] + [stop]


@main.command()
@click.option("--family", type=click.Choice(["berger", "product"]),
              default="berger")
@click.option("--tau", type=RATIO, required=True)
@click.option("--start", type=FINITE, default=None,
              help="Sweep start (default 0.2 for berger, -1 for product).")
@click.option("--stop", type=FINITE, default=None,
              help="Sweep end (default 2 for berger, 1 for product).")
@click.option("--points", type=click.IntRange(2, 100000), default=21)
@click.option("--derivatives", type=click.IntRange(0, 3), default=0)
@click.option("--jobs", type=click.IntRange(1, 64), default=1,
              help="Accepted for compatibility; no effect: the sweep runs on "
                   "one thread.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv")
@guarded
def curve(family, tau, start, stop, points, derivatives, jobs, fmt) -> None:
    """Plot-ready sweep of a variation curve (CSV by default)."""
    if family == "berger":
        fn = lambda s: functionals.berger_curve(tau, s)
        start = 0.2 if start is None else start
        stop = 2.0 if stop is None else stop
    else:
        fn = lambda t: functionals.product_sphere_curve(tau, t)
        start = -1.0 if start is None else start
        stop = 1.0 if stop is None else stop
    params = _linspace(start, stop, points)
    if not all(map(math.isfinite, params)):
        raise ValueError(f"the sweep grid from {start!r} to {stop!r} overflows a float")
    ests = _derivatives(fn, params, derivatives) if derivatives else [[]] * len(params)
    rows = list(zip(params, fn(params), ests))
    _require_finite(x for _, value, ests in rows
                    for x in [value] + [y for e in ests for y in (e.value, e.error)])
    if fmt == "json":
        json_rows = []
        for p, value, ests in rows:
            by_order = {e.order: e for e in ests}
            row = {"param": p, "value": value}
            for o in (1, 2, 3):
                row[f"d{o}"] = by_order[o].value if o in by_order else None
                row[f"err{o}"] = by_order[o].error if o in by_order else None
            json_rows.append(row)
        _emit_json({"kind": "curve", "family": family, "tau": _tau_json(tau),
                    "rows": json_rows})
        return
    click.echo(functionals.sweep_csv(rows), nl=False)


# ---------------------------------------------------------------------------
# gradient at a left-invariant metric


@main.command()
@click.option("--group", type=click.Choice(["su2", "su2xr"]), default="su2")
@click.option("--diag", required=True,
              help="Comma-separated diagonal metric entries, e.g. 1,1,4.")
@click.option("--tau", type=RATIO, required=True)
@click.option("--vol-ref", type=POSITIVE, default=None,
              help="Reference frame volume (default 2*pi^2 for su2, 1 otherwise).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
@guarded
def grad(group, diag, tau, vol_ref, fmt) -> None:
    """Full gradient of F_tau at a diagonal left-invariant metric."""
    import numpy as np

    from qcf import homogeneous
    from qcf.tensor_core import inverse_metric, tensor_norm2

    sc = homogeneous.su2() if group == "su2" else homogeneous.su2_plus_r()
    try:
        entries = [float(x) for x in diag.split(",")]
    except ValueError:
        raise ValueError(f"--diag must be comma-separated numbers, got {diag!r}")
    if len(entries) != sc.n:
        raise ValueError(f"--diag needs {sc.n} entries for {group}, got {len(entries)}")
    if not all(math.isfinite(e) and e > 0 for e in entries):
        raise ValueError("--diag entries must be finite and positive")
    if vol_ref is None:
        vol_ref = homogeneous.SU2_REFERENCE_VOLUME if group == "su2" else 1.0
    g = np.diag(entries)
    # overflow shows up as a non-finite result (_require_finite), not a warning
    with np.errstate(all="ignore"):
        gradm = np.asarray(homogeneous.gradient_F(sc, g, tau), dtype=float)
        div = np.asarray(homogeneous.divergence(sc, g, gradm), dtype=float)
        div_norm = float(tensor_norm2(inverse_metric(g), div)) ** 0.5
        vol = homogeneous.volume(sc, g, vol_ref)
        fval = homogeneous.functional_value(sc, g, tau, vol_ref)
    _require_finite([vol, fval, div_norm, *gradm.ravel(), *div])
    if fmt == "json":
        _emit_json({
            "kind": "grad",
            "group": group,
            "diag": entries,
            "tau": _tau_json(tau),
            "volume": vol,
            "functional_value": fval,
            "gradient": [[float(v) for v in row] for row in gradm],
            "divergence": [float(v) for v in div],
            "divergence_norm": div_norm,
        })
        return
    lines = [f"grad F_tau at diag({diag}) on {group}, tau = {_tau_json(tau)}:"]
    for row in gradm:
        lines.append("  [" + ", ".join(functionals.format_float(v) for v in row) + "]")
    lines.append(f"  volume = {functionals.format_float(vol)}")
    lines.append(f"  F_tau = {functionals.format_float(fval)}")
    lines.append(f"  |divergence| = {div_norm:.3e}")
    click.echo("\n".join(lines))


# ---------------------------------------------------------------------------
# symbol


@main.command()
@click.option("--dim", "n", type=click.IntRange(2, 12), required=True)
@click.option("--tau", type=RATIO, default=None,
              help="Required unless --conformal-killing is given.")
@click.option("--trials", type=click.IntRange(1, 100000), default=100,
              help="Accepted for compatibility; no effect, since rotation "
                   "invariance decides the symbol at one covector.")
@click.option("--seed", type=int, default=0,
              help="Accepted for compatibility; no effect, since rotation "
                   "invariance decides the symbol at one covector.")
@click.option("--trace-free", is_flag=True, default=False,
              help="Restrict the symbol to the trace-free block.")
@click.option("--conformal-killing", "ck", is_flag=True, default=False,
              help="Report the conformal-Killing gauge symbol instead.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
@guarded
def symbol(n, tau, trials, seed, trace_free, ck, fmt) -> None:
    """Principal-symbol injectivity of the gauged linearization."""
    if ck:
        v = rational.conformal_killing_symbol(n, [1.0] + [0.0] * (n - 1))
        if fmt == "json":
            _emit_json({
                "kind": "conformal_killing",
                "n": n,
                "eigenvalues": [float(e) for e in v.eigenvalues],
                "min_singular_value": v.min_singular_value,
                "degenerate": v.degenerate,
                "note": v.note,
            })
            return
        status = "degenerate" if v.degenerate else "injective"
        eigs = ", ".join(f"{e:g}" for e in v.eigenvalues)
        line = f"{status}; eigenvalues {{{eigs}}} at unit xi"
        if v.note:
            line += f"\n  note: {v.note}"
        click.echo(line)
        return
    if tau is None:
        raise ValueError("--tau is required (or pass --conformal-killing)")
    import numpy as np

    from qcf import spectral

    # float warnings stay off stderr, as in the other numpy commands
    with np.errstate(all="ignore"):
        v = spectral.symbol_injectivity(n, tau, trials=trials, seed=seed,
                                        restrict_trace_free=trace_free)
        contains_g = spectral.kernel_contains_metric(v, n)
    if fmt == "json":
        _emit_json({
            "kind": "symbol",
            "n": n,
            "tau": _tau_json(tau),
            "trials": trials,
            "injective": v.injective,
            "min_singular_value": v.min_singular_value,
            "kernel_dimension": len(v.kernel),
            "kernel_contains_metric": contains_g,
            "note": v.note,
        })
        return
    if v.injective:
        line = f"injective; min singular value {v.min_singular_value:.6e} over {trials} trials"
    else:
        line = "degenerate"
        if contains_g:
            line += "; kernel contains the metric direction"
        line += f" (kernel dimension {len(v.kernel)})"
    if v.note:
        line += f"\n  note: {v.note}"
    click.echo(line)


# ---------------------------------------------------------------------------
# bishop


@main.command()
@click.option("--vol-g", type=POSITIVE, required=True,
              help="Volume of the stable Einstein reference metric.")
@click.option("--vol-gt", type=POSITIVE, required=True,
              help="Volume of the comparison metric.")
@click.option("--dim", "n", type=click.IntRange(3, 8), required=True)
@click.option("--ftilde0", type=FINITE, required=True,
              help="Normalized F_0 value of the comparison metric.")
@click.option("--ric-upper-ok/--no-ric-upper-ok", default=False,
              help="Caller asserts the pointwise upper Ricci comparison.")
@click.option("--ric-lower-ok/--no-ric-lower-ok", default=False,
              help="Caller asserts the pointwise lower Ricci comparison.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
@guarded
def bishop(vol_g, vol_gt, n, ftilde0, ric_upper_ok, ric_lower_ok, fmt) -> None:
    """Volume-comparison deduction near a stable positive Einstein metric."""
    d = stability.reverse_bishop(vol_g, n, vol_gt, ric_upper_ok,
                                 ric_lower_ok, ftilde0)
    if fmt == "json":
        _emit_json({"kind": "bishop", **d.to_json()})
        return
    lines = [d.conclusion]
    lines.extend(f"  {note}" for note in d.notes)
    click.echo("\n".join(lines))


# ---------------------------------------------------------------------------
# verify


@main.command()
@click.option("--filter", "filter_", default=None,
              help="Run only criteria whose name contains this substring.")
@click.option("--seed", type=int, default=0)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
@guarded
def verify(filter_, seed, fmt) -> None:
    """Run the acceptance suite; nonzero exit on any failure."""
    import numpy as np

    from qcf import verify as verify_mod

    # float warnings stay off stderr, as in the other numpy commands
    with np.errstate(all="ignore"):
        report = verify_mod.run_all(filter_str=filter_, seed=seed)
    if fmt == "json":
        _emit_json(report.to_json())
    else:
        click.echo(report.text(), nl=False)
    click.echo(f"elapsed: {report.elapsed:.2f}s", err=True)
    if not report.all_passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
