"""Command-line surface: tables, curve sweeps, and the self-check suite.

Every command emits deterministic output for a fixed argv and seed.
This is the one module that renders a report: `stability` and `verify`
return records, and the functions beside each command build its JSON
and text from their fields. Exact thresholds travel as ratio strings
("p/q"); JSON reports carry a "kind" field and validate against
qcf/schemas/report.schema.json before being printed. Exit codes: 0
success, 1 verification failure, 2 invalid input, 3 insufficient
spectral data; `main.main()` prints each failure as one stderr line, a
reader that closes stdout early (exit 1) included.

`main()` is the entry point of the `qcf` script and of `python -m
qcf.cli`; it freezes the collector's heap once its command is done, so
the process ends without a last cyclic collection (see `_Main`).

The front end is the standard library's argparse, and `_COMMANDS` holds
every command with its options; a process builds the parser of the one
command it runs. Only the numpy-free modules are imported here. The
commands that need numpy (grad, symbol without --conformal-killing,
verify) import it, and the modules built on it, when they run, and
jsonschema is imported only to validate a JSON report. No command loads
concurrent.futures (or the logging it imports): every curve sweep runs
on one thread.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from importlib import resources

from qcf import functionals, rational, stability
from qcf.catalog import load_catalog, resolve_model
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
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


def _require_finite(values) -> None:
    """Refuse to print a float result that overflowed to inf or nan.

    Huge or tiny finite inputs can overflow the float evaluation; that
    is reported as bad input (exit 2), never printed with exit 0.
    """
    if not all(math.isfinite(float(v)) for v in values):
        raise ValueError("result is not finite at this input (float overflow)")


# ---------------------------------------------------------------------------
# the command line: converters, argparse, and the one error path


def _ratio(text: str) -> Fraction:
    """Exact 'p/q' syntax, an integer or a decimal literal: every finite
    literal parses to an exact ratio, so thresholds like 1/3 survive."""
    try:
        return parse_ratio(text)
    except (ValueError, ZeroDivisionError):
        # a long input is quoted by its first 40 characters
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise ValueError(f"{shown} is not a finite 'p/q' or decimal") from None


def _float(positive: bool = False):
    """A float that must be finite, and positive when ``positive`` is set."""
    def convert(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid float.") from None
        if not math.isfinite(x):
            raise ValueError(f"{text!r} is not finite")
        if positive and x <= 0:
            raise ValueError(f"{text!r} is not positive")
        return x
    return convert


def _int(lo: int | None = None, hi: int | None = None):
    """An integer, within [lo, hi] when the bounds are given."""
    def convert(text: str) -> int:
        try:
            k = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer.") from None
        if lo is not None and not lo <= k <= hi:
            raise ValueError(f"{k} is not in the range {lo}<=x<={hi}.")
        return k
    return convert


class _UsageError(Exception):
    """A malformed command line; not a ValueError, so argparse lets it through."""


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error raised for the one error path instead of printed."""

    def error(self, message):
        raise _UsageError(message)


def _opt(name: str, convert=None, **kwargs) -> tuple:
    """One option of a command: its name and argparse's keywords. `convert`
    parses its value; the ValueError it raises is the reason of the usage
    error "Invalid value for '--name': <reason>"."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise _UsageError(f"Invalid value for '{name}': {exc}") from None
    return name, dict(kwargs, type=parse) if convert else kwargs


def _attach(argv: list[str], takes_value: set[str]) -> list[str]:
    """argv with each option that takes a value joined to it (--tau=-1/2).

    As in click, the token after such an option is its value, whatever it
    looks like; argparse alone reads -1/2 or -1.5e-1 as an option name.
    `--` ends the options, and nothing may follow it.
    """
    out, rest = [], iter(argv)
    for tok in rest:
        if tok == "--":
            extra = list(rest)
            if extra:
                raise _UsageError(f"unexpected extra arguments: {' '.join(extra)}")
            break
        value = next(rest, None) if tok in takes_value else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def _run(prog: str, argv: list[str]) -> int | None:
    """Parse argv with the parser of its command alone and run that command;
    what the command returns is the exit code (None for 0)."""
    if argv[:1] == ["--help"]:
        print(f"usage: {prog} COMMAND [--help] [OPTIONS]", "", "commands:",
              *("  " + name.ljust(11) + (fn.__doc__ or "").partition("\n")[0]
                for name, (fn, _) in _COMMANDS.items()), sep="\n")
        return
    if not argv or argv[0] not in _COMMANDS:
        given = f"no such command {argv[0]!r}" if argv else "missing command"
        raise _UsageError(f"{given}; choose from {', '.join(_COMMANDS)} (or --help)")
    fn, options = _COMMANDS[argv[0]]
    parser = _Parser(prog=f"{prog} {argv[0]}", description=fn.__doc__, add_help=False,
                     allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    takes_value = set()
    for name, kwargs in options:  # a flag takes no value (nargs 0)
        if parser.add_argument(name, **kwargs).nargs != 0:
            takes_value.add(name)
    try:
        args = parser.parse_args(_attach(argv[1:], takes_value))
    except SystemExit:  # only --help exits, its help printed; a parse error raises
        return 0
    return fn(**vars(args))


# the messages of numpy's floating-point warnings
_FLOAT_WARNING = "(overflow|invalid value|divide by zero|underflow) encountered"


class _Main:
    """The `qcf` entry point and its one error path: every failure ends as
    one stderr line and an exit code. A usage error prints `error: ...`
    with exit 2 (no usage block), InsufficientSpectralData `insufficient
    data: ...` with exit 3, and bad input or data `error: ...` with exit
    2; a number the line quotes is cut to 40 digits. numpy's float
    warnings are ignored: an overflow shows as a non-finite result
    (_require_finite), not as a warning. A reader that closes stdout
    before the output is written gets `error: ...` with exit 1. Every run
    ends in SystemExit.

    Calling the entry (`main()`) gives a raw stdout (PYTHONUNBUFFERED) a
    buffer, so that a closed pipe is reported as with a buffered one, runs
    `main` and then freezes the heap, so that the interpreter's last
    collection, which has nothing to reclaim, skips it; `main` itself
    never freezes, since a long-lived caller's frozen heap would not be
    collected again.

    `name` and the signature of `main` are the ones the benchmark's
    launcher and its recorder (through click.testing.CliRunner) call;
    the launcher passes standalone_mode=True, the only mode there is.
    """

    name = "qcf"

    def main(self, args=None, prog_name=None, standalone_mode: bool = True):
        argv = sys.argv[1:] if args is None else list(args)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FLOAT_WARNING, RuntimeWarning)
            try:
                code = _run(prog_name or self.name, argv) or 0
                sys.stdout.flush()  # a closed stdout raises here, not at shutdown
            except _UsageError as exc:
                line, code = f"error: {exc}", 2
            except InsufficientSpectralData as exc:
                line, code = f"insufficient data: {exc}", 3
            except OverflowError:
                # from math.exp and **, whose own text does not say what overflowed
                line, code = "error: float overflow at this input", 2
            except (IllConditionedDerivativeError, ValueError) as exc:
                line, code = f"error: {exc}", 2
            except BrokenPipeError:
                # the reader closed stdout: point it at devnull, so that the
                # flush at shutdown cannot raise again (as the signal module's
                # SIGPIPE note does)
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                line, code = "error: stdout was closed before the output was written", 1
            else:
                sys.exit(code)
        # a number past 40 digits shows as its first 40 and its length
        print(re.sub(r"\d{41,}", lambda m: f"{m[0][:40]}... ({len(m[0])} digits)", line),
              file=sys.stderr)
        sys.exit(code)

    def __call__(self):
        out = sys.stdout
        if isinstance(getattr(out, "buffer", None), io.FileIO):
            # PYTHONUNBUFFERED: over a raw stdout the text layer drops what a short
            # write to a closing pipe left over; buffered, the flush in main raises
            sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.buffer), out.encoding,
                                          out.errors)
        try:
            self.main()
        finally:
            gc.freeze()


main = _Main()

# ---------------------------------------------------------------------------
# intervals


def _ends(iv) -> tuple[str, str]:
    """The texts of an interval's ends; a missing end is -inf or inf."""
    return ("-inf" if iv.lo is None else format_ratio(iv.lo),
            "inf" if iv.hi is None else format_ratio(iv.hi))


def _interval_json(ms, iv) -> dict:
    lo, hi = _ends(iv)
    return {"kind": "interval", "model": ms.key, "n": ms.n, "lo": lo, "hi": hi,
            "lo_open": iv.lo_open, "hi_open": iv.hi_open,
            "provenance": {"lo": iv.lo_provenance, "hi": iv.hi_provenance},
            "notes": list(iv.notes), "verdict_inside": iv.verdict_inside}


def _interval_text(ms, iv) -> str:
    lo, hi = _ends(iv)
    lb = "(" if iv.lo_open else "["
    rb = ")" if iv.hi_open else "]"
    lines = [f"{ms.display_name}: tau in {lb}{lo}, {hi}{rb} -> {iv.verdict_inside}",
             f"  lower endpoint: {iv.lo_provenance}",
             f"  upper endpoint: {iv.hi_provenance}"]
    lines.extend(f"  note: {note}" for note in iv.notes)
    return "\n".join(lines)


def _verdict_json(ms, tau, v) -> dict:
    num, den = tau.as_integer_ratio()  # a float tau is its exact value
    return {"kind": "verdict", "model": ms.key, "n": ms.n, "R": format_ratio(ms.scal),
            "tau": {"num": num, "den": den}, "verdict": v.variant,
            "witness": None if v.witness is None else format_ratio(v.witness),
            "notes": list(v.notes), "provenance": list(v.provenance)}


def _verdict_text(ms, tau, v) -> str:
    head = f"{ms.display_name} at tau = {format_ratio(tau)}: {v.variant}"
    if v.witness is not None:
        head += f" (witness {format_ratio(v.witness)})"
    lines = [head]
    lines.extend(f"  note: {note}" for note in v.notes)
    lines.extend(f"  via: {p}" for p in v.provenance)
    return "\n".join(lines)


def intervals(model, dim, m_, order, tau, lambda1_, fmt) -> None:
    """Strict-stability tau interval of a catalog model, or a point verdict."""
    if lambda1_ is not None and tau is None:
        # the interval does not depend on lambda1 (yet), so it would be dropped
        raise ValueError("--lambda1 applies only with --tau")
    cat = load_catalog()
    ms = resolve_model(cat, model, dim, m_, order)
    if tau is not None:
        v = stability.combined_verdict(ms, tau, lambda1_override=lambda1_)
        if fmt == "json":
            _emit_json(_verdict_json(ms, tau, v))
        elif fmt == "csv":
            print("model,tau,verdict,witness")
            wit = format_ratio(v.witness) if v.witness is not None else ""
            print(f"{ms.key},{format_ratio(tau)},{v.variant},{wit}")
        else:
            print(_verdict_text(ms, tau, v))
        return
    iv = stability.stability_interval(ms)
    if fmt == "json":
        _emit_json(_interval_json(ms, iv))
    elif fmt == "csv":
        lo, hi = _ends(iv)
        print("model,lo,hi,lo_open,hi_open,verdict_inside")
        print(f"{ms.key},{lo},{hi},{iv.lo_open},{iv.hi_open},{iv.verdict_inside}")
    else:
        print(_interval_text(ms, iv))


# ---------------------------------------------------------------------------
# rigidity


def _rigidity_json(rep, bach) -> dict:
    obj = {"kind": "rigidity", "model": rep.model_key, "notes": list(rep.notes),
           "exceptional_taus": [{"tau": format_ratio(e.tau), "mu": format_ratio(e.mu),
                                 "kernel": e.kernel_note} for e in rep.exceptional]}
    if bach is not None:
        obj["bach"] = {"model": bach.model_key, "bach_rigid": bach.rigid,
                       "strict_weyl_minimizer": bach.strict_weyl_min,
                       "targets": [format_ratio(t) for t in bach.targets],
                       "notes": list(bach.notes)}
    return obj


def rigidity(model, dim, m_, order, count, mus, fmt) -> None:
    """Exceptional tau values where the gauged kernel jumps; Bach verdict at n=4."""
    cat = load_catalog()
    ms = resolve_model(cat, model, dim, m_, order)
    rep = stability.rigidity_exceptional_taus(ms, count=count, mu_list=mus)
    bach = stability.bach_verdict(ms) if ms.n == 4 else None
    if fmt == "json":
        _emit_json(_rigidity_json(rep, bach))
        return
    if fmt == "csv":
        print("tau,mu,kernel")
        for e in rep.exceptional:
            kernel = e.kernel_note.replace(",", ";")
            print(f"{format_ratio(e.tau)},{format_ratio(e.mu)},{kernel}")
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
    print("\n".join(lines))


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
            "tau": format_ratio(tau),
            "at": at_,
            "value": value,
            "derivatives": [
                {"order": e.order, "value": e.value, "error": e.error}
                for e in ests
            ],
        }
        if pts is not None:
            obj["critical_points"] = [
                {"s_squared": format_ratio(p.s_squared), "s": p.s,
                 "multiplicity": p.multiplicity}
                for p in pts
            ]
        _emit_json(obj)
        return
    lines = [f"f_tau({functionals.format_float(at_)}) = "
             f"{functionals.format_float(value)} at tau = {format_ratio(tau)}"]
    for e in ests:
        lines.append(f"  d{e.order} = {functionals.format_float(e.value)} "
                     f"(error estimate {e.error:.3e})")
    if pts is not None:
        for p in pts:
            mult = f", multiplicity {p.multiplicity}" if p.multiplicity > 1 else ""
            lines.append(f"  critical: s^2 = {format_ratio(p.s_squared)} (s = "
                         f"{functionals.format_float(p.s)}{mult})")
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# curve sweeps


def _linspace(start: float, stop: float, points: int) -> list[float]:
    """np.linspace(start, stop, points), points >= 2, by the same float operations."""
    div, step = points - 1, (stop - start) / (points - 1)
    return [i / div * (stop - start) + start if step == 0 else i * step + start
            for i in range(div)] + [stop]


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
        _emit_json({"kind": "curve", "family": family, "tau": format_ratio(tau),
                    "rows": json_rows})
        return
    print(functionals.sweep_csv(rows), end="")


# ---------------------------------------------------------------------------
# gradient at a left-invariant metric


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
            "tau": format_ratio(tau),
            "volume": vol,
            "functional_value": fval,
            "gradient": [[float(v) for v in row] for row in gradm],
            "divergence": [float(v) for v in div],
            "divergence_norm": div_norm,
        })
        return
    lines = [f"grad F_tau at diag({diag}) on {group}, tau = {format_ratio(tau)}:"]
    for row in gradm:
        lines.append("  [" + ", ".join(functionals.format_float(v) for v in row) + "]")
    lines.append(f"  volume = {functionals.format_float(vol)}")
    lines.append(f"  F_tau = {functionals.format_float(fval)}")
    lines.append(f"  |divergence| = {div_norm:.3e}")
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# symbol


def symbol(n, tau, trials, seed, trace_free, ck, fmt) -> None:
    """Principal-symbol injectivity of the gauged linearization."""
    if ck:
        # the conformal-Killing symbol depends on neither, so either would be dropped
        if tau is not None:
            raise ValueError("--tau does not apply with --conformal-killing")
        if trace_free:
            raise ValueError("--trace-free does not apply with --conformal-killing")
        v = rational.conformal_killing_symbol(n)
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
        print(line)
        return
    if tau is None:
        raise ValueError("--tau is required (or pass --conformal-killing)")
    from qcf import spectral

    v = spectral.symbol_injectivity(n, tau, restrict_trace_free=trace_free)
    contains_g = spectral.kernel_contains_metric(v, n)
    if fmt == "json":
        _emit_json({
            "kind": "symbol",
            "n": n,
            "tau": format_ratio(tau),
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
    print(line)


# ---------------------------------------------------------------------------
# bishop


def bishop(vol_g, vol_gt, n, ftilde0, ric_upper_ok, ric_lower_ok, fmt) -> None:
    """Volume-comparison deduction near a stable positive Einstein metric."""
    d = stability.reverse_bishop(vol_g, n, vol_gt, ric_upper_ok,
                                 ric_lower_ok, ftilde0)
    if fmt == "json":
        _emit_json({"kind": "bishop", "conclusion": d.conclusion, "notes": list(d.notes)})
    else:
        print("\n".join([d.conclusion, *(f"  {note}" for note in d.notes)]))


# ---------------------------------------------------------------------------
# verify


def _verify_json(report) -> dict:
    return {"kind": "verify", "checks": [r._asdict() for r in report.results],
            "all_passed": report.all_passed}


def _verify_text(report) -> str:
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: measured {r.measured}; "
             f"expected {r.expected}" for r in report.results]
    lines.append("overall: " + ("PASS" if report.all_passed else "FAIL"))
    return "\n".join(lines) + "\n"


def verify(filter_, seed, fmt) -> int:
    """Run the acceptance suite; nonzero exit on any failure."""
    from qcf import verify as verify_mod

    report = verify_mod.run_all(filter_str=filter_, seed=seed)
    if fmt == "json":
        _emit_json(_verify_json(report))
    else:
        print(_verify_text(report), end="")
    print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# the command table: every command with its options, in the order --help lists them

_MODEL = (
    _opt("--model", required=True,
         help="Catalog key ('sphere:4') or family name plus --dim/--m."),
    _opt("--dim", _int(), help="Dimension for sphere, hyperbolic, torus, quotient models."),
    _opt("--m", _int(), dest="m_",
         help="Complex dimension / factor dimension for cp and product models."),
    _opt("--order", _int(), help="Quotient order (quotient models)."),
)
_UNUSED = "Accepted for compatibility; no effect, since rotation invariance decides the " \
          "symbol at one covector."


def _format(*choices: str) -> tuple:
    return _opt("--format", dest="fmt", choices=choices, default=choices[0])


_COMMANDS = {
    "intervals": (intervals, (
        *_MODEL,
        _opt("--tau", _ratio, help="Report the verdict at this tau instead of the interval."),
        _opt("--lambda1", _ratio, dest="lambda1_",
             help="First nonzero Laplace eigenvalue on functions, for branches that need it."),
        _format("text", "json", "csv"))),
    "rigidity": (rigidity, (
        *_MODEL,
        _opt("--count", _int(1, 64), default=8, help="How many exceptional values to list."),
        _opt("--mu", _ratio, dest="mus", action="append",
             help="Extra TT eigenvalues (repeatable), for bound-only models."),
        _format("text", "json", "csv"))),
    "berger": (berger, (
        _opt("--tau", _ratio, required=True),
        _opt("--at", _float(), dest="at_", default=1.0,
             help="Berger parameter s at which to evaluate."),
        _opt("--derivatives", _int(0, 3), default=3,
             help="Highest derivative order to estimate (0 = value only)."),
        _opt("--critical", action="store_true",
             help="Also list the critical parameters of the curve."),
        _format("text", "json"))),
    "curve": (curve, (
        _opt("--family", choices=("berger", "product"), default="berger"),
        _opt("--tau", _ratio, required=True),
        _opt("--start", _float(), help="Sweep start (default 0.2 for berger, -1 for product)."),
        _opt("--stop", _float(), help="Sweep end (default 2 for berger, 1 for product)."),
        _opt("--points", _int(2, 100000), default=21),
        _opt("--derivatives", _int(0, 3), default=0),
        _opt("--jobs", _int(1, 64), default=1,
             help="Accepted for compatibility; no effect: the sweep runs on one thread."),
        _format("csv", "json"))),
    "grad": (grad, (
        _opt("--group", choices=("su2", "su2xr"), default="su2"),
        _opt("--diag", required=True,
             help="Comma-separated diagonal metric entries, e.g. 1,1,4."),
        _opt("--tau", _ratio, required=True),
        _opt("--vol-ref", _float(positive=True),
             help="Reference frame volume (default 2*pi^2 for su2, 1 otherwise)."),
        _format("text", "json"))),
    "symbol": (symbol, (
        _opt("--dim", _int(2, 12), dest="n", required=True),
        _opt("--tau", _ratio, help="The weight tau; required, except with "
                                   "--conformal-killing, which refuses it."),
        _opt("--trials", _int(1, 100000), default=100, help=_UNUSED),
        _opt("--seed", _int(), default=0, help=_UNUSED),
        _opt("--trace-free", action="store_true",
             help="Restrict the symbol to the trace-free block."),
        _opt("--conformal-killing", dest="ck", action="store_true",
             help="Report the conformal-Killing gauge symbol instead; "
                  "takes neither --tau nor --trace-free."),
        _format("text", "json"))),
    "bishop": (bishop, (
        _opt("--vol-g", _ratio, required=True,
             help="Volume of the stable Einstein reference metric."),
        _opt("--vol-gt", _ratio, required=True, help="Volume of the comparison metric."),
        _opt("--dim", _int(3, 8), dest="n", required=True),
        _opt("--ftilde0", _ratio, required=True,
             help="Normalized F_0 value of the comparison metric."),
        _opt("--ric-upper-ok", action=argparse.BooleanOptionalAction, default=False,
             help="Caller asserts the pointwise upper Ricci comparison."),
        _opt("--ric-lower-ok", action=argparse.BooleanOptionalAction, default=False,
             help="Caller asserts the pointwise lower Ricci comparison."),
        _format("text", "json"))),
    "verify": (verify, (
        _opt("--filter", dest="filter_",
             help="Run only criteria whose name contains this substring."),
        _opt("--seed", _int(), default=0),
        _format("text", "json"))),
}


if __name__ == "__main__":
    main()
