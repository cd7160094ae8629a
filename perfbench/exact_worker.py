"""Child process of the exact-sweep workload: qcf library calls in-process.

Reads {"queries": [...], "seconds": S, "trace": bool, "setup_only": bool}
as JSON on stdin. Gets ready (imports, catalog, report schema, query
resolution), then repeats the round of queries until the next round
would end after S seconds (at least one round). With "trace", each
round is run untraced and then traced, so that the difference is the
tracing overhead. Each query's time is also reported calibrated (see
calib.py). Writes one JSON document to stdout.
"""

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402

CAL_EVERY_S = 0.2
SAMPLE_EVERY_S = 0.05
QUICK_MS = 20.0
QUICK_REPEATS = 3


class Sampler:
    """Runs one repetition of the calibration kernel every SAMPLE_EVERY_S
    of wall time (SIGALRM) while a query runs, so that a long query is
    calibrated by the machine speed during it, not only at its ends."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calib.measure(reps=1))
        self.spent += perf_counter() - t0

    def time(self, call, sample: bool = True):
        """(seconds the call took, excluding the samples; its result or
        exception; the samples taken during it)."""
        self.samples, self.spent = [], 0.0
        t0 = perf_counter()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            out = call()
        except Exception as exc:  # reported as a decision by execute()
            out = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return perf_counter() - t0 - self.spent, out, self.samples


def execute(kind, call, sampler, sample: bool = True):
    """Time one call: (ms, decision, calibration samples taken during it)."""
    from exact_calls import decide
    from qcf.stability import InsufficientSpectralData

    s, out, samples = sampler.time(call, sample)
    if isinstance(out, InsufficientSpectralData):
        return s * 1e3, {"raises": "InsufficientSpectralData"}, samples
    if isinstance(out, Exception):  # any other exception is a failure
        return s * 1e3, {"error": f"{type(out).__name__}: {out}"}, samples
    return s * 1e3, decide(kind, out), samples


def run_round(prepared, traced: bool, sampler) -> dict:
    """Run every query once. Untraced, a query faster than QUICK_MS is
    repeated and its fastest call kept; traced rounds take no kernel
    samples, so that spans do not contain them. A query is calibrated by the
    kernel samples taken while it ran, or, with fewer than two of them,
    by the calibrations just before and just after it (those run at
    least every CAL_EVERY_S and after every query longer than 50 ms)."""
    t0 = perf_counter()
    cals = [calib.measure()]
    last_cal = perf_counter()
    first_ms, best_ms, inside, brackets, results = [], [], [], [], []
    for kind, call in prepared:
        if perf_counter() - last_cal > CAL_EVERY_S or (first_ms and first_ms[-1] > 50):
            cals.append(calib.measure())
            last_cal = perf_counter()
        brackets.append(len(cals) - 1)
        ms, res, samples = execute(kind, call, sampler, sample=not traced)
        first_ms.append(ms)
        results.append(res)
        fastest = ms
        if not traced and ms < QUICK_MS:
            for _ in range(QUICK_REPEATS - 1):
                fastest = min(fastest, execute(kind, call, sampler)[0])
        best_ms.append(fastest)
        inside.append(samples)
    cals.append(calib.measure())
    calibrated = []
    for ms, b, samples in zip(best_ms, brackets, inside):
        speed = (sum(samples) / len(samples) if len(samples) >= 2
                 else (cals[b] + cals[b + 1]) / 2)
        calibrated.append(ms * calib.REFERENCE_S / speed)
    return {"traced": traced, "wall_ms": (perf_counter() - t0) * 1e3,
            "times_ms": first_ms, "calibrated_ms": calibrated, "results": results}


def main() -> None:
    job = json.load(sys.stdin)
    import qcf
    import qcf.cli
    from exact_calls import prepare

    cat = qcf.cli.load_catalog()
    qcf.cli._report_schema()
    prepared = [(q[0], prepare(q, cat)) for q in job["queries"]]
    out = {"qcf_file": qcf.__file__, "rounds": []}
    if job.get("setup_only"):
        json.dump(out, sys.stdout)
        return
    tracer = None
    if job.get("trace"):
        from spans import Tracer
        tracer = Tracer()
    sampler = Sampler()
    t_start = perf_counter()
    while True:
        out["rounds"].append(run_round(prepared, False, sampler))
        if tracer is not None:
            tracer.install()
            try:
                out["rounds"].append(run_round(prepared, True, sampler))
            finally:
                tracer.uninstall()
        elapsed = perf_counter() - t_start
        per_round = elapsed / (len(out["rounds"]) // (2 if tracer else 1))
        if elapsed + per_round > job["seconds"]:
            break
    if tracer is not None:
        out["trace"] = tracer.summary()
    out["t_start"], out["t_end"] = T_START, perf_counter()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
