"""Record the references in refs/ from the current qcf source.

    python3 perfbench/run.py --record

Runs every query any seed can generate, in-process (CLI queries through
click's test runner, which gives the same stdout and exit code as a
separate process), and stores the outputs the comparison rules in
refcheck.py need. The exact-sweep reference also stores the verdict
pool: for each non-torus model its exact breakpoints and, for each gap
between them, the candidate rationals a seed may pick.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import queries
import refcheck

SRC = Path(__file__).resolve().parent.parent / "src"


def _ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def breakpoints(model) -> list[Fraction]:
    """Conformal thresholds and TT contacts tau(mu) = (mu n - 4R)/(2nR)."""
    n, R = model.n, model.scal
    pts = {Fraction(4 - 3 * n, 2 * n * (n - 1)), Fraction(-n, 4 * (n - 1)),
           Fraction(-1, n), Fraction(-1, 3), Fraction(-3, 8), Fraction(-5, 12)}
    if R != 0 and model.tt is not None:
        for mu in [e.mu for e in model.tt.known] + [model.tt.tail_bound]:
            pts.add(Fraction(mu * n - 4 * R, 2 * n * R))
    return sorted(pts)


def verdict_pool(model) -> dict:
    bps = breakpoints(model)
    gaps = [[bps[0] - Fraction(j, 4) for j in range(1, 5)]]
    gaps += [[a + (b - a) * Fraction(j, 8) for j in range(1, 8)]
             for a, b in zip(bps, bps[1:])]
    gaps.append([bps[-1] + Fraction(j, 4) for j in range(1, 5)])
    return {"breakpoints": [_ratio(b) for b in bps],
            "gaps": [[_ratio(t) for t in gap] for gap in gaps]}


def _cli_outputs(argvs, runner, main) -> dict:
    results = {}
    for argv in argvs:
        res = runner.invoke(main, argv, catch_exceptions=False)
        results[queries.query_key(argv)] = refcheck.cli_reference(
            argv, res.exit_code, res.stdout)
    return results


def record_all(refs_dir: Path) -> None:
    sys.path.insert(0, str(SRC))
    from click.testing import CliRunner

    import qcf.cli
    from exact_calls import prepare
    from exact_worker import Sampler, execute

    cat = qcf.cli.load_catalog()
    if sorted(cat) != sorted(queries.MODELS):
        raise SystemExit(f"catalog keys changed: {sorted(cat)}")
    refs_dir.mkdir(exist_ok=True)
    runner = CliRunner()
    docs = {
        "cli-oneshot": {"results": _cli_outputs(
            queries.cli_pool() + queries.cli_smoke(), runner, qcf.cli.main)},
        "curve-sweeps": {"results": _cli_outputs(
            queries.curve_pool() + queries.curve_smoke(), runner, qcf.cli.main)},
    }
    pool = {m: verdict_pool(cat[m]) for m in queries.NON_TORUS}
    exact_queries = [["verdict", m, t] for m, p in pool.items()
                     for t in p["breakpoints"] + [t for gap in p["gaps"] for t in gap]]
    exact_queries += queries.exact_fixed_pool()
    results, sampler = {}, Sampler()
    for q in exact_queries:
        _, res, _ = execute(q[0], prepare(q, cat), sampler, sample=False)
        if "error" in res:
            raise SystemExit(f"{q}: {res['error']}")
        results[queries.query_key(q)] = res
    docs["exact-sweep"] = {"verdict_pool": pool, "results": results}
    for name, doc in docs.items():
        with open(refs_dir / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(doc['results'])} references")
