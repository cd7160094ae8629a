"""Seeded query generation for the three benchmark workloads.

Every query is drawn from a finite pool that is enumerated here (CLI
argv lists) or stored in the reference file (exact verdict taus), so a
reference recorded once covers every seed. The seed only chooses pool
members; how many queries of each kind a round holds, and their output
formats, are fixed, so that the cost of a round does not depend on the
seed.
"""

from __future__ import annotations

import json
import random

FORMATS2 = ("text", "json")

MODELS = (
    [f"{fam}:{n}" for n in range(3, 9) for fam in ("sphere", "hyperbolic", "torus")]
    + ["quotient:4:2"]
    + [f"{fam}:{m}" for m in (2, 3, 4) for fam in ("cp", "product")]
)
NON_TORUS = [k for k in MODELS if not k.startswith("torus:")]
CURVED = [k for k in NON_TORUS if not k.startswith("hyperbolic:")]
DIM4 = ["sphere:4", "hyperbolic:4", "torus:4", "quotient:4:2", "cp:2", "product:2"]

# ---------------------------------------------------------------------------
# cli-oneshot: separate `python -m qcf.cli ...` processes

POINT_TAUS = ("-1/2", "-3/8", "-1/3", "0", "1/5", "1/2")
BERGER_TAUS = ("-2/5", "-1/7", "0", "1/3", "1/2", "2")
GRAD_DIAGS = {"su2": ("1,1,1", "1,1,4", "2,1,1"), "su2xr": ("1,1,1,1", "1,2,1,3")}
BISHOP_ARGS = (
    ("10", "11", "4", "3000"),
    ("5", "5", "3", "12"),
    ("2", "3", "6", "400"),
)
CURVE_TAUS = ("-1/2", "0", "1/3", "3/4")
VERIFY_FILTERS = ("00-catalog", "01-intervals", "04-product-kaehler-path",
                  "08-rigidity", "09-gauss-bonnet")
SYMBOL_TAUS = ("1/3", "-1/2", "2/7", "tau2")
SCI_QUERIES = (
    ["intervals", "--model", "sphere:5", "--tau", "2.5e-1"],
    ["intervals", "--model", "cp:2", "--tau", "-4e-1"],
    ["berger", "--tau", "-1.5e-1"],
    ["symbol", "--dim", "4", "--tau", "3.0e-1", "--trials", "10"],
    ["curve", "--tau", "1e-1"],
    ["grad", "--diag", "1,1,2", "--tau", "5e-1"],
)


def _tau2(n: int) -> str:
    return f"-{n}/{4 * (n - 1)}"


FORMATS = {"intervals": ("text", "json", "csv"), "rigidity": ("text", "json", "csv"),
           "curve": ("csv", "json")}
JSON_PER_ROUND = 6
FIXED_FORMAT = {"symbol": "json", "torus6": "text"}


def _with_format(argv: list[str], fmt: str) -> list[str]:
    default = FORMATS.get(argv[0], FORMATS2)[0]
    return argv if fmt == default else argv + ["--format", fmt]


def cli_categories() -> dict[str, tuple[list[list[str]], int]]:
    """Category -> (argv candidates without --format, queries per round).

    Per round: 17 queries over all eight commands, two of them expected
    to exit nonzero.
    """
    cats: dict[str, tuple[list[list[str]], int]] = {}
    cats["interval"] = ([["intervals", "--model", m] for m in MODELS], 2)
    cats["verdict"] = (
        [["intervals", "--model", m, "--tau", t]
         for m in NON_TORUS + ["torus:3", "torus:4", "torus:5"] for t in POINT_TAUS], 2)
    cats["rigidity"] = (
        [["rigidity", "--model", m, "--count", c] for m in CURVED for c in ("4", "8")], 1)
    cats["rigidity-mu"] = (
        [["rigidity", "--model", m, *mu]
         for m in [f"hyperbolic:{n}" for n in range(3, 9)] + ["sphere:4"]
         for mu in (["--mu", "1"], ["--mu", "5/2", "--mu", "7"])], 1)
    cats["berger"] = ([["berger", "--tau", t, "--critical"] for t in BERGER_TAUS], 1)
    cats["grad"] = (
        [["grad", "--group", g, "--diag", d, "--tau", t]
         for g, diags in GRAD_DIAGS.items() for d in diags for t in ("0", "-1/3", "1/2")],
        1)
    cats["bishop"] = (
        [["bishop", "--vol-g", a, "--vol-gt", b, "--dim", n, "--ftilde0", f,
          "--ric-upper-ok", "--ric-lower-ok"] for a, b, n, f in BISHOP_ARGS], 1)
    cats["conformal-killing"] = (
        [["symbol", "--dim", str(n), "--conformal-killing"] for n in range(2, 13)], 1)
    cats["curve"] = (
        [["curve", "--family", fam, "--tau", t] for fam in ("berger", "product")
         for t in CURVE_TAUS], 1)
    cats["verify"] = ([["verify", "--filter", f] for f in VERIFY_FILTERS], 1)
    cats["symbol"] = (
        [["symbol", "--dim", str(n), "--tau", _tau2(n) if t == "tau2" else t,
          "--trials", tr] for n in (5, 6) for t in SYMBOL_TAUS for tr in ("2", "3")], 1)
    cats["torus6"] = ([["intervals", "--model", "torus:6", "--tau", "-3/2"]], 1)
    cats["sci-tau"] = (SCI_QUERIES, 1)
    cats["exit3"] = (
        [["intervals", "--model", f"hyperbolic:{n}", "--tau", "0"] for n in range(5, 9)], 1)
    cats["exit2"] = (
        [["intervals", "--model", m] for m in ("klein:4", "sphere:9", "cp:7")], 1)
    return cats


def cli_pool() -> list[list[str]]:
    """Every argv cli_round can produce, for recording references."""
    return [_with_format(argv, fmt)
            for cands, _ in cli_categories().values() for argv in cands
            for fmt in FORMATS.get(argv[0], FORMATS2)]


def cli_round(seed: int) -> list[list[str]]:
    """The seed picks each query and which JSON_PER_ROUND - 1 of the
    others emit json; the rest use a seeded non-json format. Two formats
    are fixed: the exact symbol query is the largest process of a round
    and the torus:6 verdict its slowest, so that neither peak memory nor
    the slowest query depends on the seed."""
    rng = random.Random(f"cli-oneshot:{seed}")
    picked = [(name, rng.choice(cands)) for name, (cands, count) in cli_categories().items()
              for _ in range(count)]
    json_slots = set(rng.sample([i for i, (name, _) in enumerate(picked)
                                 if name not in FIXED_FORMAT], JSON_PER_ROUND - 1))
    out = []
    for i, (name, argv) in enumerate(picked):
        other = [f for f in FORMATS.get(argv[0], FORMATS2) if f != "json"]
        if name in FIXED_FORMAT:
            out.append(_with_format(argv, FIXED_FORMAT[name]))
        else:
            out.append(_with_format(argv, "json" if i in json_slots else rng.choice(other)))
    rng.shuffle(out)
    return out


def cli_smoke() -> list[list[str]]:
    return [["intervals", "--model", "sphere:4"],
            ["intervals", "--model", "cp:2", "--tau", "1/5", "--format", "json"],
            ["intervals", "--model", "hyperbolic:5", "--tau", "0"]]


# ---------------------------------------------------------------------------
# curve-sweeps: large `qcf curve` processes

BERGER_SWEEP_TAUS = ("-1/2", "-1/5", "0", "1/7", "1/3", "1/2", "3/4", "1")
PRODUCT_SWEEP_TAUS = ("-1", "-1/2", "-1/3", "0", "1/6", "1/3", "1/2", "1")


def curve_templates() -> list[tuple[list[str], tuple[str, ...]]]:
    """(argv without --tau, tau pool); one query per template per round.
    Sizes keep each process near a second, so that a run repeats every
    template several times."""
    return [
        (["curve", "--points", "1000", "--derivatives", "3"], BERGER_SWEEP_TAUS),
        (["curve", "--points", "1000", "--derivatives", "3", "--format", "json"],
         BERGER_SWEEP_TAUS),
        (["curve", "--family", "product", "--points", "30", "--derivatives", "3"],
         PRODUCT_SWEEP_TAUS),
        (["curve", "--family", "product", "--points", "30", "--derivatives", "3",
          "--format", "json"], PRODUCT_SWEEP_TAUS),
        (["curve", "--points", "600", "--derivatives", "3", "--jobs", "2"],
         BERGER_SWEEP_TAUS),
    ]


def curve_pool() -> list[list[str]]:
    return [argv + ["--tau", t] for argv, taus in curve_templates() for t in taus]


def curve_round(seed: int) -> list[list[str]]:
    rng = random.Random(f"curve-sweeps:{seed}")
    out = [argv + ["--tau", rng.choice(taus)] for argv, taus in curve_templates()]
    rng.shuffle(out)
    return out


def curve_smoke() -> list[list[str]]:
    return [["curve", "--tau", "1/3", "--points", "21", "--derivatives", "3"],
            ["curve", "--family", "product", "--tau", "0", "--points", "5",
             "--derivatives", "2", "--format", "json"]]


# ---------------------------------------------------------------------------
# exact-sweep: in-process library calls
#
# A query is a JSON list: ["verdict", model, tau], ["interval", model],
# ["rigidity", model], ["bach", model], ["symbol", n, tau, trials,
# trace_free], ["invariants", model] or ["verify", seed]. Exact taus
# travel as "p/q" strings, float taus as numbers.

SYMBOL_GENERIC = ("1/3", "-1/2", "2/7", "-3/5", "1/9", "5/4")
SYMBOL_FLOAT = (0.25, -0.45, 1.5e-1, 0.7)
TORUS_BELOW = ("-1/2", "-3/4", "-1", "-3/2")
TORUS_ABOVE = ("-1/4", "0", "1/3", "2")
# the models of a slot cost about the same, so that the seed does not move
# the cost of a round
INVARIANT_SLOTS = (DIM4, ["cp:4", "product:4"])
# verify's own seed moves its cost by up to half, so it is not drawn
VERIFY_SEED = 0


def exact_fixed_pool() -> list[list]:
    """Exact-sweep queries outside the per-model verdict pool."""
    out: list[list] = []
    for m in MODELS:
        out += [["interval", m], ["rigidity", m]]
    out += [["bach", m] for m in DIM4]
    for n in range(3, 8):
        out += [["verdict", f"torus:{n}", t] for t in TORUS_BELOW + TORUS_ABOVE]
        out.append(["verdict", f"torus:{n}", _tau2(n)])
    out += [["verdict", "torus:8", t] for t in TORUS_ABOVE]
    for n in range(3, 9):
        out += [["symbol", n, t, 1, False] for t in SYMBOL_GENERIC + (_tau2(n),)]
        out += [["symbol", n, t, 4, False] for t in SYMBOL_FLOAT]
        if n < 8:
            out += [["symbol", n, t, 1, True] for t in SYMBOL_GENERIC]
    out += [["invariants", m] for slot in INVARIANT_SLOTS for m in slot]
    out.append(["verify", VERIFY_SEED])
    return out


def exact_round(seed: int, verdict_pool: dict) -> list[list]:
    """One pass: every non-torus model at each breakpoint and at one seeded
    rational inside each gap, the torus scans, reports, symbols,
    invariants and one verify run. ``verdict_pool`` comes from the
    reference file: model -> {"breakpoints": [...], "gaps": [[...], ...]}.
    """
    rng = random.Random(f"exact-sweep:{seed}")
    out: list[list] = []
    for m in NON_TORUS:
        pool = verdict_pool[m]
        out += [["verdict", m, t] for t in pool["breakpoints"]]
        out += [["verdict", m, rng.choice(gap)] for gap in pool["gaps"]]
    for n in range(3, 8):
        out.append(["verdict", f"torus:{n}", rng.choice(TORUS_BELOW)])
        out.append(["verdict", f"torus:{n}", _tau2(n)])
        out.append(["verdict", f"torus:{n}", rng.choice(TORUS_ABOVE)])
    out += [["verdict", "torus:8", t] for t in rng.sample(TORUS_ABOVE, 2)]
    for m in MODELS:
        out += [["interval", m], ["rigidity", m]]
    out += [["bach", m] for m in DIM4]
    for n in range(3, 9):
        generic = rng.choice(SYMBOL_GENERIC)
        out += [["symbol", n, generic, 1, False], ["symbol", n, _tau2(n), 1, False],
                ["symbol", n, rng.choice(SYMBOL_FLOAT), 4, False]]
        if n < 8:  # the trace-free block at n = 8 alone would cost 0.6 s
            out.append(["symbol", n, generic, 1, True])
    out += [["invariants", rng.choice(slot)] for slot in INVARIANT_SLOTS]
    out.append(["verify", VERIFY_SEED])
    rng.shuffle(out)
    return out


def exact_smoke(verdict_pool: dict) -> list[list]:
    return [["verdict", "sphere:4", verdict_pool["sphere:4"]["breakpoints"][0]],
            ["verdict", "hyperbolic:6", verdict_pool["hyperbolic:6"]["gaps"][-1][0]],
            ["interval", "cp:2"], ["rigidity", "product:2"], ["bach", "sphere:4"],
            ["symbol", 3, "-3/8", 1, False], ["invariants", "sphere:4"]]


def query_key(query) -> str:
    return json.dumps(query, separators=(",", ":"))
