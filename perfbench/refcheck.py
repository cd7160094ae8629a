"""Compare program outputs with the references recorded in refs/.

Rules:
- Decision fields compare exactly: verdicts, witnesses, endpoints and
  openness, exceptional taus, Bach flags, injectivity, kernel dimension,
  exact invariants, verify pass flags, exit codes and all text.
- Floats compare within RTOL relative plus ATOL absolute.
- A derivative estimate may also differ by DERIV_SLACK times the sum of
  the two reported error estimates; error estimates themselves must be
  finite and non-negative.
- `min_singular_value` of a symbol query is not compared with the
  reference, only with verify criterion 07's bound: above MIN_SV_BOUND
  when the symbol is injective.
- A verify query passes when every criterion passes.
- Any traceback, or any exception that the reference does not name,
  is a failure.
Each check returns None on a match and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import re

RTOL = 1e-9
ATOL = 1e-9
DERIV_SLACK = 8.0
MIN_SV_BOUND = 1e-6

_NUM = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b)")
_MIN_SV = re.compile(r"min singular value (\S+)")
_DERIV = re.compile(r"^  d(\d) = (\S+) \(error estimate (\S+)\)$")


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _estimate_ok(value, err, ref_value, ref_err) -> bool:
    if not (math.isfinite(err) and err >= 0):
        return False
    return abs(value - ref_value) <= (RTOL * max(abs(value), abs(ref_value)) + ATOL
                                      + DERIV_SLACK * (err + abs(ref_err)))


def _is_float_token(tok: str) -> bool:
    return any(c in tok for c in ".eEni")


def compare_text(got: str, ref: str) -> str | None:
    g, r = _NUM.split(got), _NUM.split(ref)
    if len(g) != len(r):
        return "text differs in shape"
    for i, (a, b) in enumerate(zip(g, r)):
        if i % 2 == 0 or not (_is_float_token(a) and _is_float_token(b)):
            if a != b:
                return f"text differs: {a!r} vs {b!r}"
        elif not close(float(a), float(b)):
            return f"number differs: {a} vs {b}"
    return None


def compare_json(got, ref, kind: str = "", key: str = "") -> str | None:
    if isinstance(got, dict) and isinstance(ref, dict):
        if got.keys() != ref.keys():
            return f"keys differ at {key!r}: {sorted(got)} vs {sorted(ref)}"
        kind = got.get("kind", kind) if isinstance(got.get("kind"), str) else kind
        if {"order", "value", "error"} <= got.keys():
            if not _estimate_ok(got["value"], got["error"], ref["value"], ref["error"]):
                return f"derivative order {got['order']} differs: {got} vs {ref}"
            return None if got["order"] == ref["order"] else "derivative order differs"
        for k in got:
            if k == "min_singular_value" and kind == "symbol":
                if got.get("injective") and not got[k] > MIN_SV_BOUND:
                    return f"min singular value {got[k]} not above {MIN_SV_BOUND}"
                continue
            if kind == "verify" and k in ("measured", "expected"):
                continue
            why = compare_json(got[k], ref[k], kind, k)
            if why:
                return why
        return None
    if isinstance(got, list) and isinstance(ref, list):
        if len(got) != len(ref):
            return f"length differs at {key!r}: {len(got)} vs {len(ref)}"
        for a, b in zip(got, ref):
            why = compare_json(a, b, kind, key)
            if why:
                return why
        return None
    if isinstance(got, float) or isinstance(ref, float):
        if isinstance(got, bool) or isinstance(ref, bool) or got is None or ref is None:
            return f"value differs at {key!r}: {got!r} vs {ref!r}"
        return None if close(float(got), float(ref)) else f"{key} differs: {got} vs {ref}"
    return None if got == ref else f"value differs at {key!r}: {got!r} vs {ref!r}"


# ---------------------------------------------------------------------------
# curve sweeps: references hold every k-th row


def curve_rows(argv: list[str], stdout: str) -> tuple[list[list], dict]:
    """Rows as [param, value, d1, d2, d3, err1, err2, err3] (None when
    absent) plus the document fields other than rows (json only)."""
    if "json" in argv:
        doc = json.loads(stdout)
        rows = [[r["param"], r["value"], r["d1"], r["d2"], r["d3"],
                 r["err1"], r["err2"], r["err3"]] for r in doc.pop("rows")]
        return rows, doc
    lines = stdout.splitlines()
    if not lines or lines[0] != "param,value,d1,d2,d3,err1,err2,err3":
        raise ValueError("missing curve CSV header")
    rows = [[float(x) if x else None for x in line.split(",")] for line in lines[1:]]
    return rows, {}


def sample_every(n_rows: int) -> int:
    return max(1, n_rows // 50)


def curve_reference(argv: list[str], exit_code: int, stdout: str) -> dict:
    rows, meta = curve_rows(argv, stdout)
    k = sample_every(len(rows))
    picked = sorted(set(range(0, len(rows), k)) | {len(rows) - 1})
    return {"exit": exit_code, "rows": len(rows), "meta": meta,
            "sample": [[i] + rows[i] for i in picked]}


def compare_curve(argv: list[str], stdout: str, ref: dict) -> str | None:
    try:
        rows, meta = curve_rows(argv, stdout)
    except (ValueError, KeyError) as exc:
        return f"unparseable curve output: {exc}"
    if len(rows) != ref["rows"]:
        return f"{len(rows)} rows, want {ref['rows']}"
    why = compare_json(meta, ref["meta"])
    if why:
        return why
    for row in rows:
        if any(x is not None and not math.isfinite(x) for x in row):
            return f"non-finite value in row {row}"
    for i, *want in ref["sample"]:
        got = rows[i]
        if not (close(got[0], want[0]) and close(got[1], want[1])):
            return f"row {i} differs: {got[:2]} vs {want[:2]}"
        for o in range(3):
            d, e, rd, re_ = got[2 + o], got[5 + o], want[2 + o], want[5 + o]
            if (d is None) != (rd is None):
                return f"row {i}: derivative {o + 1} present in only one output"
            if d is not None and not _estimate_ok(d, e, rd, re_):
                return f"row {i}: d{o + 1} = {d} (err {e}) vs {rd} (err {re_})"
    return None


# ---------------------------------------------------------------------------
# CLI queries


def cli_reference(argv: list[str], exit_code: int, stdout: str) -> dict:
    if argv[0] == "curve" and exit_code == 0:
        return curve_reference(argv, exit_code, stdout)
    return {"exit": exit_code, "stdout": stdout}


def compare_cli(argv: list[str], exit_code: int, stdout: str, stderr: str,
                ref: dict) -> str | None:
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if exit_code != ref["exit"]:
        return f"exit {exit_code}, want {ref['exit']}"
    if "sample" in ref:
        return compare_curve(argv, stdout, ref)
    want = ref["stdout"]
    if "json" in argv and exit_code == 0:
        try:
            got = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if argv[0] == "verify" and not got.get("all_passed"):
            return "verify criterion failed"
        return compare_json(got, json.loads(want))
    if argv[0] == "verify":
        status = lambda text: [line.split(":", 1)[0] for line in text.splitlines()]
        if "[FAIL]" in stdout:
            return "verify criterion failed"
        return None if status(stdout) == status(want) else "verify lines differ"
    if argv[0] == "symbol" and "--conformal-killing" not in argv:
        m = _MIN_SV.search(stdout)
        if m:
            if not float(m.group(1)) > MIN_SV_BOUND:
                return f"min singular value {m.group(1)} not above {MIN_SV_BOUND}"
            stdout = _MIN_SV.sub("min singular value _", stdout)
            want = _MIN_SV.sub("min singular value _", want)
    if argv[0] == "berger":
        g_lines, w_lines = stdout.splitlines(), want.splitlines()
        if len(g_lines) != len(w_lines):
            return "berger output differs in length"
        for a, b in zip(g_lines, w_lines):
            ma, mb = _DERIV.match(a), _DERIV.match(b)
            if ma and mb:
                if ma.group(1) != mb.group(1) or not _estimate_ok(
                        float(ma.group(2)), float(ma.group(3)),
                        float(mb.group(2)), float(mb.group(3))):
                    return f"berger derivative differs: {a.strip()} vs {b.strip()}"
            else:
                why = compare_text(a, b)
                if why:
                    return why
        return None
    return compare_text(stdout, want)


# ---------------------------------------------------------------------------
# exact-sweep decisions


def compare_exact(query, got: dict, ref: dict) -> str | None:
    if "error" in got:
        return "unexpected exception: " + got["error"]
    if query[0] == "symbol":
        got, ref = dict(got), dict(ref)
        sv = got.pop("min_singular_value")
        ref.pop("min_singular_value")
        if got["injective"] and not sv > MIN_SV_BOUND:
            return f"min singular value {sv} not above {MIN_SV_BOUND}"
    if query[0] == "verify" and not got["all_passed"]:
        failed = [name for name, ok in got["checks"] if not ok]
        return "verify criteria failed: " + ", ".join(failed)
    return None if got == ref else f"got {got}, want {ref}"


def corrupt(ref: dict) -> dict:
    """A deliberately wrong copy of a reference, for the smoke run."""
    bad = json.loads(json.dumps(ref))
    if "sample" in bad:
        bad["sample"][0][2] *= 1.001
    elif "stdout" in bad:
        bad["stdout"] += "corrupted\n"
    else:
        bad["corrupted"] = True
    return bad
