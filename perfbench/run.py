"""qcf benchmark: one-shot CLI latency, exact decision sweeps, curve sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 --smoke
    python3 perfbench/run.py --record

Run from the root of a checkout that holds src/qcf. Each workload is one
closed loop with a single client on one thread: the next query starts
when the previous one has finished. A run repeats a seeded round of
queries until the next round would end after S seconds (at least one
round), checks every output against refs/, and prints one JSON object
as the last line of stdout. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs every query untraced and then traced
and reports per-layer metrics. --smoke runs a tiny round once and adds
one deliberately corrupted reference, which must be the only failure.
--record rewrites refs/ from the current source. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import calib
import queries
import refcheck
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("cli-oneshot", "exact-sweep", "curve-sweeps")
SETUP_PROBES = 10
QUERY_TIMEOUT_S = 150
VERIFY_CRITERIA = ("00-catalog", "01-intervals", "02-berger-derivatives",
                   "03-berger-secondary-critical", "04-product-kaehler-path",
                   "05-einstein-gradients", "06-divergence-free", "07-symbol",
                   "08-rigidity", "09-gauss-bonnet", "10-property-suites")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("QCF_CATALOG", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    return env


class Launch(NamedTuple):
    start: float  # perf_counter stamps; CLOCK_MONOTONIC is shared with children
    end: float
    code: int
    out: str
    err: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def launch(cmd: list[str], stdin: str | None = None) -> Launch:
    """Run one child to completion and time it from spawn to exit."""
    t0 = perf_counter()
    try:
        p = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                           cwd=ROOT, env=child_env(), timeout=QUERY_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return Launch(t0, perf_counter(), -1, "", f"timed out after {exc.timeout} s")
    return Launch(t0, perf_counter(), p.returncode, p.stdout, p.stderr)


def load_refs(workload: str) -> dict:
    with open(HERE / "refs" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def ready(cmd: list[str], stdin: str | None = None) -> Launch:
    """A set-up probe that must succeed and must import qcf from SRC."""
    run = launch(cmd, stdin)
    if run.code != 0:
        raise SystemExit(f"set-up probe failed: {run.err.strip()[-2000:]}")
    path = run.out.strip()
    if path.startswith("{"):
        path = json.loads(path)["qcf_file"]
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"qcf imported from {path}, not from {SRC}")
    return run


class CalibratedClock:
    """Turns wall times into calibrated times (calib.py), running the
    kernel after every timed launch so that each launch is bracketed by
    the kernel runs just before and just after it."""

    def __init__(self):
        self.last = calib.measure()

    def __call__(self, wall: float) -> float:
        now = calib.measure()
        out = wall * calib.REFERENCE_S * 2 / (self.last + now)
        self.last = now
        return out


class Layers:
    """Per-layer accumulators of a traced run."""

    def __init__(self):
        self.summary: dict = {}
        self.imports = dict.fromkeys(("numpy", "jsonschema", "click", "qcf", "qcf.cli"), 0.0)
        self.launches = 0
        self.startup_ms = self.exit_ms = 0.0
        self.traced_ms = self.untraced_ms = self.other_ms = 0.0
        self.rounds = 0

    def add_launch(self, run: Launch, summary: dict) -> str:
        """Account one traced child; returns its stderr without import times."""
        times, err = spans.parse_importtime(run.err)
        self.launches += 1
        for k, v in times.items():
            self.imports[k] += v
        self.startup_ms += (summary["t_start"] - run.start) * 1e3
        self.exit_ms += (run.end - summary["t_end"]) * 1e3
        return err

    def metrics(self) -> dict:
        names = self.summary.get("names", {})
        per = max(self.rounds, 1)

        def get(name, field="ms"):
            return names.get(name, {}).get(field, 0) / per

        launches = max(self.launches, 1)
        m = {
            "import.numpy_s": self.imports["numpy"] / launches,
            "import.jsonschema_s": self.imports["jsonschema"] / launches,
            "import.click_s": self.imports["click"] / launches,
            "import.qcf_s": self.imports["qcf"] / launches,
            "cli.import_s": self.imports["qcf.cli"] / launches,
            "python.startup_ms": self.startup_ms / launches,
            "python.exit_ms": self.exit_ms / launches,
            "cli.schema_validate_ms": get("cli.schema_validate"),
            "cli.schema_validate_calls": get("cli.schema_validate", "count"),
            "cli.emit_ms": get("cli.emit"),
            "catalog.load_ms": get("catalog.load"),
            "catalog.function_spectrum_ms": get("catalog.function_spectrum"),
            "catalog.function_spectrum_calls": get("catalog.function_spectrum", "count"),
            "stability.verdict_self_ms": get("stability.combined_verdict", "self_ms"),
            "stability.report_ms": get("stability.report"),
            "stability.wasted_scan_ratio": (
                self.summary.get("scans_wasted", 0)
                / max(self.summary.get("scans_in_verdict", 0), 1)),
            "spectral.symbol_build_ms": get("spectral.symbol_build"),
            "spectral.symbol_builds": get("spectral.symbol_build", "count"),
            "spectral.injectivity_ms": get("spectral.injectivity"),
            "spectral.kernel_metric_ms": get("spectral.kernel_metric"),
            "exact.elim_ms": get("exact.elim"),
            "exact.elim_calls": get("exact.elim", "count"),
            "exact.elim_entries": get("exact.elim", "tags"),
            "tensor_core.invariants_exact_ms": get("tensor_core.invariants.exact"),
            "tensor_core.invariants_float_ms": get("tensor_core.invariants.float"),
            "tensor_core.kn_calls": get("tensor_core.kn", "count"),
            "homogeneous.grad_einstein_ms": get("homogeneous.grad_einstein"),
            "homogeneous.curvature_ms": get("homogeneous.curvature"),
            "functionals.curve_eval_ms.berger": get("functionals.curve_eval.berger"),
            "functionals.curve_eval_ms.product": get("functionals.curve_eval.product"),
            "functionals.curve_evals": (get("functionals.curve_eval.berger", "count")
                                        + get("functionals.curve_eval.product", "count")),
            "functionals.derivatives_self_ms": get("functionals.derivatives", "self_ms"),
            "functionals.sweep_csv_ms": get("functionals.sweep_csv"),
        }
        for c in VERIFY_CRITERIA:
            m[f"verify.{c}_s"] = get(f"verify.{c}") / 1e3
        m["trace.wall_ms"] = self.traced_ms / per
        m["other_ms"] = self.other_ms / per
        m["trace.overhead_pct"] = (100.0 * (self.traced_ms - self.untraced_ms)
                                   / max(self.untraced_ms, 1e-9))
        return m


# ---------------------------------------------------------------------------
# subprocess workloads: cli-oneshot and curve-sweeps


def run_subprocess_workload(round_queries, refs, seconds, trace, smoke):
    py = sys.executable
    probe = [py, str(HERE / "launch.py"), "--ready"]
    ready(probe)  # warm-up, discarded
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{os.getpid()}.json"
    traced_cmd = [py, "-X", "importtime", str(HERE / "launch.py"), "--traced", str(span_file), "--"]
    layers = Layers()
    clock = CalibratedClock()
    setup, runs = [], []  # runs: (position in round, argv, Launch, calibrated s; None if traced)
    last_probe = -math.inf
    t_start = perf_counter()
    rounds = 0
    while True:
        for j, argv in enumerate(round_queries):
            if not trace and perf_counter() - last_probe >= seconds / SETUP_PROBES:
                setup.append(clock(ready(probe).wall))  # spread over the run
                last_probe = perf_counter()
            run = launch([py, "-m", "qcf.cli", *argv])
            runs.append((j, argv, run, None if trace else clock(run.wall)))
            if trace:
                layers.untraced_ms += run.wall * 1e3
                run = launch(traced_cmd + argv)
                with open(span_file, encoding="utf-8") as fh:
                    summary = json.load(fh)
                run = run._replace(err=layers.add_launch(run, summary))
                spans.merge(layers.summary, summary)
                layers.traced_ms += run.wall * 1e3
                layers.other_ms += ((summary["t_end"] - summary["t_start"]) * 1e3
                                    - summary["covered_ms"])
                runs.append((j, argv, run, None))
        rounds += 1
        elapsed = perf_counter() - t_start
        if smoke or elapsed + elapsed / rounds > seconds:
            break
    span_file.unlink(missing_ok=True)
    layers.rounds = rounds
    failures = []
    for _, argv, run, _ in runs:
        ref = refs["results"].get(queries.query_key(argv))
        why = ("no reference recorded" if ref is None
               else refcheck.compare_cli(argv, run.code, run.out, run.err, ref))
        if why:
            failures.append((argv, why))
    if smoke:
        argv = round_queries[0]
        run = launch([py, "-m", "qcf.cli", *argv])
        why = refcheck.compare_cli(argv, run.code, run.out, run.err,
                                   refcheck.corrupt(refs["results"][queries.query_key(argv)]))
        failures.append((["corrupted-reference", *argv], why or "not detected"))
    per_query = [[] for _ in round_queries]
    raw = [[] for _ in round_queries]
    for j, _, run, cal in runs:
        if cal is not None:
            per_query[j].append(cal)
            raw[j].append(run.wall)
    return {"setup": setup, "per_query": per_query, "raw": raw, "rounds": rounds,
            "failures": failures,
            "layers": layers, "attempted": len(runs) + smoke}


# ---------------------------------------------------------------------------
# exact-sweep: one worker process running library calls in-process


def run_exact_workload(round_queries, refs, seconds, trace, smoke):
    py = sys.executable
    worker = str(HERE / "exact_worker.py")
    setup_job = json.dumps({"queries": round_queries, "setup_only": True})
    ready([py, worker], setup_job)  # warm-up, discarded
    probes = 1 if smoke else SETUP_PROBES // 2
    clock = CalibratedClock()
    setup = [clock(ready([py, worker], setup_job).wall) for _ in range(probes)]
    job = json.dumps({"queries": round_queries, "seconds": 0 if smoke else seconds,
                      "trace": bool(trace)})
    run = launch([py, "-X", "importtime", worker] if trace else [py, worker], job)
    if run.code != 0:
        raise SystemExit(f"exact-sweep worker failed: {run.err.strip()[-2000:]}")
    clock = CalibratedClock()
    setup += [clock(ready([py, worker], setup_job).wall) for _ in range(probes)]
    doc = json.loads(run.out)
    layers = Layers()
    if trace:
        layers.add_launch(run, doc)
        layers.summary = doc["trace"]
    per_query, raw, failures = [[] for _ in round_queries], [[] for _ in round_queries], []
    for r in doc["rounds"]:
        for j, (q, ms, raw_ms, res) in enumerate(zip(round_queries, r["calibrated_ms"],
                                                     r["times_ms"], r["results"])):
            ref = refs["results"].get(queries.query_key(q))
            why = "no reference recorded" if ref is None else refcheck.compare_exact(q, res, ref)
            if why:
                failures.append((q, why))
            if not r["traced"]:
                per_query[j].append(ms / 1e3)
                raw[j].append(raw_ms / 1e3)
        if r["traced"]:  # first calls only, without the calibration kernel
            layers.traced_ms += sum(r["times_ms"])
            layers.rounds += 1
        else:
            layers.untraced_ms += sum(r["times_ms"])
    layers.other_ms = layers.traced_ms - layers.summary.get("covered_ms", 0.0)
    if smoke:
        q, res = round_queries[0], doc["rounds"][0]["results"][0]
        why = refcheck.compare_exact(q, res, refcheck.corrupt(refs["results"][queries.query_key(q)]))
        failures.append((["corrupted-reference", q], why or "not detected"))
    return {"setup": setup, "per_query": per_query, "raw": raw,
            "rounds": len(doc["rounds"]) - layers.rounds,
            "failures": failures, "layers": layers,
            "attempted": sum(len(r["results"]) for r in doc["rounds"]) + smoke}


# ---------------------------------------------------------------------------
# run record


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "qcf").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(p.relative_to(SRC).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "jsonschema", "click"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "qcf" / "__init__.py").is_file():
        print(f"error: no qcf sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        import record
        record.record_all(HERE / "refs")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    cpu = calib.pin_to_one_cpu()
    record_info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke, "commit": commit(),
                   "source_sha256": source_digest(), "versions": versions(),
                   "nproc": os.cpu_count(), "pinned_cpu": cpu, "loadavg_start": loadavg()}
    refs = load_refs(args.workload)
    if args.workload == "exact-sweep":
        qs = (queries.exact_smoke(refs["verdict_pool"]) if args.smoke
              else queries.exact_round(args.seed, refs["verdict_pool"]))
        res = run_exact_workload(qs, refs, args.seconds, args.trace, args.smoke)
    else:
        if args.workload == "cli-oneshot":
            qs = queries.cli_smoke() if args.smoke else queries.cli_round(args.seed)
        else:
            qs = queries.curve_smoke() if args.smoke else queries.curve_round(args.seed)
        res = run_subprocess_workload(qs, refs, args.seconds, args.trace, args.smoke)
    record_info["loadavg_end"] = loadavg()
    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in res["layers"].metrics().items()}
    else:
        typical = [statistics.median(v) for v in res["per_query"]]
        metrics = {
            "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
            "latency_p50_ms": {"value": statistics.median(typical) * 1e3, "unit": "ms"},
            "latency_max_ms": {"value": max(typical) * 1e3, "unit": "ms"},
            "queries_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    failures = res["failures"]
    if args.smoke:
        correct = len(failures) == 1 and failures[0][0][0] == "corrupted-reference"
    else:
        correct = not failures
    record_info.update({
        "qcf_checked_under": str(SRC), "rounds": res["rounds"],
        "attempted": res["attempted"], "failed": len(failures),
        "error_rate": len(failures) / res["attempted"],
        "failures": [[q, why] for q, why in failures[:50]],
        "setup_probes_s": res["setup"], "queries": qs, "calibrated_s": res["per_query"],
        "raw_wall_s": res["raw"],
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    rec_path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"{'-smoke' if args.smoke else ''}.json")
    rec_path.write_text(json.dumps(record_info, indent=1))
    print(f"{args.workload} seed {args.seed}: {len(qs)} queries x {res['rounds']} "
          f"round(s); error_rate {len(failures)}/{res['attempted']}; "
          f"record {rec_path.relative_to(ROOT)}")
    for q, why in failures[:5]:
        print(f"  failure: {q}: {why}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms") or ".curve_eval_ms." in metric:
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
