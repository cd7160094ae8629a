"""Spans around calls into qcf's modules, recorded from outside the package.

A Tracer replaces module attributes with timing wrappers at the places
where callers look the names up (``qcf.cli.load_catalog``,
``qcf.stability.function_spectrum``, ...), keeps every span in memory,
and reduces them to per-name totals when the traced work is done. qcf
itself is not modified; uninstall() puts the original objects back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter


def _elim_entries(args, out):
    rows, cols = args[0].shape
    return rows * cols * out[0]


def _square_entries(args, out):
    n = args[0].shape[0]
    return n ** 3


def _invariants_name(args, kwargs):
    g = args[0] if args else kwargs["g"]
    return "tensor_core.invariants." + ("exact" if g.dtype == object else "float")


# (span name or name function, tag function, lookup sites)
SITES = [
    ("catalog.load", None,
     ["qcf.catalog.load_catalog", "qcf.cli.load_catalog", "qcf.verify.load_catalog",
      "qcf.load_catalog"]),
    ("catalog.function_spectrum", None,
     ["qcf.catalog.function_spectrum", "qcf.stability.function_spectrum"]),
    ("stability.combined_verdict", lambda args, out: out.variant,
     ["qcf.stability.combined_verdict"]),
    ("stability.report", None,
     ["qcf.stability.stability_interval", "qcf.stability_interval",
      "qcf.stability.rigidity_exceptional_taus", "qcf.stability.bach_verdict"]),
    ("spectral.symbol_build", None, ["qcf.spectral.gauged_symbol"]),
    ("spectral.injectivity", None, ["qcf.spectral.symbol_injectivity"]),
    ("spectral.kernel_metric", None, ["qcf.spectral.kernel_contains_metric"]),
    ("exact.elim", _elim_entries,
     ["qcf._exact.exact_rank_nullspace", "qcf.spectral.exact_rank_nullspace"]),
    ("exact.elim", _square_entries,
     ["qcf._exact.exact_inv", "qcf.tensor_core.exact_inv"]),
    ("exact.elim", _square_entries,
     ["qcf._exact.exact_det", "qcf.tensor_core.exact_det"]),
    (_invariants_name, None,
     ["qcf.tensor_core.quadratic_invariants", "qcf.verify.quadratic_invariants"]),
    ("tensor_core.kn", None,
     ["qcf.tensor_core.kulkarni_nomizu", "qcf.catalog.kulkarni_nomizu"]),
    ("homogeneous.grad_einstein", None, ["qcf.homogeneous.gradient_from_einstein"]),
    ("homogeneous.curvature", None, ["qcf.homogeneous.curvature"]),
    ("functionals.curve_eval.berger", None, ["qcf.functionals.berger_curve"]),
    ("functionals.curve_eval.product", None, ["qcf.functionals.product_sphere_curve"]),
    ("functionals.derivatives", None, ["qcf.functionals.curve_derivatives"]),
    ("functionals.sweep_csv", None, ["qcf.functionals.sweep_csv"]),
    ("cli.emit", None, ["click.echo"]),
]


class Tracer:
    """Span recorder. Each span is [name, start, end, parent index, tag].

    Parents are tracked per thread. A top-level span of the main thread
    has parent -1; one opened at the top of another thread (a curve
    sweep's worker pool) has parent -2, so that the main thread's spans
    alone measure how much of the run the spans cover.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._undo: list[tuple] = []

    def open(self, name) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1]
        else:
            parent = -1 if threading.get_ident() == self._main else -2
        rec = [name, perf_counter(), 0.0, parent, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name, tag=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
                if tag is not None:
                    rec[4] = tag(args, out)
                return out
            finally:
                self.close(rec)
        return wrapper

    def span(self, name, start, end):
        """Record a span measured by the caller (a top-level phase)."""
        self.spans.append([name, start, end, -1, None])

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for name, tag, sites in SITES:
            for site in sites:
                mod_name, _, attr = site.rpartition(".")
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(fn, name, tag)
                self._set(mod, attr, wrapped[id(fn)])
        verify = importlib.import_module("qcf.verify")
        self._set(verify, "CRITERIA",
                  [(c, self.wrap(fn, f"verify.{c}")) for c, fn in verify.CRITERIA])
        # cli imports jsonschema lazily inside _emit_json; wrap validate
        # there, without importing it earlier than qcf does
        cli = sys.modules["qcf.cli"]
        emit = cli._emit_json
        tracer = self

        @functools.wraps(emit)
        def emit_json(obj):
            import jsonschema
            if not getattr(jsonschema.validate, "_perfbench", False):
                validate = tracer.wrap(jsonschema.validate, "cli.schema_validate")
                validate._perfbench = True
                tracer._set(jsonschema, "validate", validate)
            return emit(obj)
        self._set(cli, "_emit_json", self.wrap(emit_json, "cli.emit"))

        class TracedPool(cli.ThreadPoolExecutor):
            """The span covers the whole `with` block of a --jobs sweep."""

            def __enter__(self):
                self._perfbench_span = tracer.open("cli.thread_pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._perfbench_span)
        self._set(cli, "ThreadPoolExecutor", TracedPool)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def summary(self) -> dict:
        """Per span name: count, inclusive ms of outermost spans, self ms and
        summed tags; plus the ms covered by the main thread's top-level
        spans and the wasted-scan counts."""
        spans = self.spans
        child_ms = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ms[rec[3]] += (rec[2] - rec[1]) * 1e3
        names: dict[str, dict] = {}
        covered = 0.0
        scans_in_verdict = scans_wasted = 0
        for i, (name, t0, t1, parent, tag) in enumerate(spans):
            dur = (t1 - t0) * 1e3
            s = names.setdefault(name, {"count": 0, "ms": 0.0, "self_ms": 0.0, "tags": 0})
            s["count"] += 1
            s["self_ms"] += dur - child_ms[i]
            if isinstance(tag, (int, float)):
                s["tags"] += tag
            p, outermost = parent, True
            verdict = None
            while p >= 0:
                if spans[p][0] == name:
                    outermost = False
                if verdict is None and spans[p][0] == "stability.combined_verdict":
                    verdict = spans[p][4]
                p = spans[p][3]
            if outermost:
                s["ms"] += dur
            if parent == -1:
                covered += dur
            if name == "catalog.function_spectrum" and verdict is not None:
                scans_in_verdict += 1
                scans_wasted += verdict == "FailsTT"
        return {"names": names, "covered_ms": covered,
                "scans_in_verdict": scans_in_verdict, "scans_wasted": scans_wasted}


def parse_importtime(stderr: str) -> tuple[dict, str]:
    """Split `-X importtime` lines off stderr.

    Returns ({"numpy": s, "jsonschema": s, "click": s, "qcf": s,
    "qcf.cli": s}, remaining stderr). Third-party packages and qcf.cli
    report cumulative time; "qcf" is the summed self time of qcf's own
    modules.
    """
    out = {"numpy": 0.0, "jsonschema": 0.0, "click": 0.0, "qcf": 0.0, "qcf.cli": 0.0}
    rest = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name in ("numpy", "jsonschema", "click", "qcf.cli"):
            out[name] += cum_us / 1e6
        if name == "qcf" or name.startswith("qcf."):
            out["qcf"] += self_us / 1e6
    return out, "\n".join(rest)


def merge(total: dict, part: dict) -> dict:
    """Add one summary into an accumulated one."""
    for name, s in part["names"].items():
        t = total.setdefault("names", {}).setdefault(
            name, {"count": 0, "ms": 0.0, "self_ms": 0.0, "tags": 0})
        for k in t:
            t[k] += s[k]
    for k in ("covered_ms", "scans_in_verdict", "scans_wasted"):
        total[k] = total.get(k, 0) + part[k]
    return total
