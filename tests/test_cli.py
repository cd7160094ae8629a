"""CLI behavior: formats, determinism, exit codes, schema-valid JSON."""

import gc
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from conftest import QcfRunner, catalog_json, with_tt_eigenvalue

from qcf.cli import main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("qcf").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture
def runner():
    return QcfRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def test_intervals_text(runner):
    res = invoke(runner, ["intervals", "--model", "sphere", "--dim", "3"])
    assert res.exit_code == 0
    assert "S^3: tau in (-3/8, 1/3) -> StrictlyStable" in res.output


def test_intervals_json_schema(runner, schema):
    res = invoke(runner, ["intervals", "--model", "sphere:3", "--format", "json"])
    assert res.exit_code == 0
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "interval"
    assert obj["lo"] == "-3/8"
    assert obj["hi"] == "1/3"
    assert obj["lo_open"] and obj["hi_open"]


def test_intervals_unbounded_side(runner, schema):
    res = invoke(runner, ["intervals", "--model", "hyperbolic", "--dim", "3",
                          "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["hi"] == "inf"
    assert obj["verdict_inside"] == "StableBoundOnly"


def test_point_verdict_json(runner, schema):
    res = invoke(runner, ["intervals", "--model", "product", "--m", "2",
                          "--tau", "0", "--format", "json"])
    assert res.exit_code == 0
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "verdict"
    assert obj["verdict"] == "FailsTT"
    assert obj["witness"] == "4"
    assert obj["tau"] == {"num": 0, "den": 1}


def test_verdict_csv(runner):
    res = invoke(runner, ["intervals", "--model", "product:2", "--tau", "0",
                          "--format", "csv"])
    lines = res.output.splitlines()
    assert lines[0] == "model,tau,verdict,witness"
    assert lines[1] == "product:2,0,FailsTT,4"


def test_unknown_model_exit_code(runner):
    res = runner.invoke(main, ["intervals", "--model", "banana"])
    assert res.exit_code == 2
    assert "unknown model" in res.stderr
    assert "sphere:3" in res.stderr  # the listing names what exists


@pytest.mark.parametrize("args,stderr", [
    (["intervals", "--model", "sphere:4", "--dim", "5"],
     "error: --dim 5 does not match model 'sphere:4' (dim 4)\n"),
    (["intervals", "--model", "quotient", "--dim", "4", "--m", "2"],
     "error: model 'quotient' takes --dim and --order, not --m\n"),
    (["intervals", "--model", "hyperbolic:6", "--lambda1", "100"],
     "error: --lambda1 applies only with --tau\n"),
    (["symbol", "--dim", "3", "--tau", "-3/8", "--conformal-killing"],
     "error: --tau does not apply with --conformal-killing\n"),
    (["symbol", "--dim", "3", "--trace-free", "--conformal-killing"],
     "error: --trace-free does not apply with --conformal-killing\n"),
    (["symbol", "--dim", "4", "--tau", "0", "--trace-free", "--conformal-killing",
      "--format", "json"],
     "error: --tau does not apply with --conformal-killing\n"),
])
def test_refused_option_names_itself(runner, args, stderr):
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", stderr)


@pytest.mark.parametrize("args,key", [
    (["--model", "sphere:4", "--dim", "4"], "sphere:4"),
    (["--model", "quotient", "--dim", "4", "--order", "2"], "quotient:4:2"),
    (["--model", "quotient:4:2", "--dim", "4", "--order", "2"], "quotient:4:2"),
    (["--model", "cp:3", "--m", "3"], "cp:3"),
])
def test_agreeing_model_options_are_accepted(runner, args, key):
    for command in ("intervals", "rigidity"):
        res = invoke(runner, [command] + args)
        assert res.exit_code == 0
        assert res.stdout == invoke(runner, [command, "--model", key]).stdout


def test_insufficient_data_exit_code(runner):
    res = runner.invoke(main, ["intervals", "--model", "hyperbolic",
                               "--dim", "5", "--tau", "-1/6"])
    assert res.exit_code == 3
    assert "lambda_1" in res.stderr


def test_lambda1_override_flows_through(runner):
    res = invoke(runner, ["intervals", "--model", "hyperbolic", "--dim", "5",
                          "--tau", "-1/6", "--lambda1", "9/2"])
    assert res.exit_code == 0
    assert "StableBoundOnly" in res.output


def test_rigidity_text_includes_bach(runner):
    res = invoke(runner, ["rigidity", "--model", "product:2"])
    assert res.exit_code == 0
    assert "tau = -1/2 (mu = 0)" in res.output
    assert "Bach-rigid: yes; strict Weyl minimizer: yes" in res.output


def test_rigidity_json_schema(runner, schema):
    res = invoke(runner, ["rigidity", "--model", "cp", "--m", "2",
                          "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "rigidity"
    assert obj["exceptional_taus"][0]["tau"] == "1/6"
    assert obj["bach"]["bach_rigid"] is True


def test_rigidity_mu_option(runner):
    res = invoke(runner, ["rigidity", "--model", "hyperbolic", "--dim", "5",
                          "--mu", "-5", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "tau,mu,kernel"
    assert lines[1].startswith("-11/40,-5")


def test_berger_text(runner):
    res = invoke(runner, ["berger", "--tau", "1/3"])
    assert res.exit_code == 0
    assert "f_tau(1) = 24" in res.output
    assert "d3 = 568.8888" in res.output


def test_berger_json_with_critical_points(runner, schema):
    res = invoke(runner, ["berger", "--tau", "-2/5", "--critical",
                          "--derivatives", "1", "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "berger"
    assert obj["tau"] == "-2/5"
    s2 = [p["s_squared"] for p in obj["critical_points"]]
    assert s2 == ["2/13", "1"]
    assert len(obj["derivatives"]) == 1


def test_curve_csv_header_and_determinism(runner):
    args = ["curve", "--family", "berger", "--tau", "1/3", "--points", "5",
            "--derivatives", "2"]
    first = invoke(runner, args).output
    second = invoke(runner, args).output
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "param,value,d1,d2,d3,err1,err2,err3"
    assert len(lines) == 6
    # derivative columns filled, d3/err3 empty
    assert lines[1].split(",")[2] != ""
    assert lines[1].split(",")[4] == ""


def test_curve_jobs_do_not_change_output(runner):
    base = ["curve", "--family", "product", "--tau", "-1/2", "--points", "7"]
    seq = invoke(runner, base).output
    par = invoke(runner, base + ["--jobs", "4"]).output
    assert seq == par


def test_curve_jobs_split_the_sweep_without_changing_output(runner):
    base = ["curve", "--tau", "1/7", "--points", "100", "--derivatives", "3"]
    seq = invoke(runner, base + ["--jobs", "1"]).stdout
    assert seq.count("\n") == 101
    for jobs in ("2", "3", "64"):
        assert invoke(runner, base + ["--jobs", jobs]).stdout == seq, jobs


@pytest.mark.parametrize("args", [
    ["berger", "--tau", "0", "--at", "0.01"],
    ["curve", "--tau", "0", "--start", "0.01", "--stop", "1", "--points", "3",
     "--derivatives", "1"],
    ["curve", "--tau", "0", "--start", "1", "--stop", "0.01", "--points", "3",
     "--derivatives", "1", "--jobs", "2"],
])
def test_stencil_past_zero_names_its_reach(runner, args):
    """A positive s whose derivative stencil reaches s <= 0 is not called
    non-positive; the error names the reach and the way out."""
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == ("error: the derivative stencil reaches 0.02 below s = 0.01, "
                          "past s = 0; use s > 0.02 or --derivatives 0\n")
    assert runner.invoke(main, args + ["--derivatives", "0"]).exit_code == 0


@pytest.mark.parametrize("args", [
    ["berger", "--tau", "0", "--at", "0"],
    ["berger", "--tau", "0", "--at", "-1", "--derivatives", "0"],
    ["curve", "--tau", "0", "--start", "-1", "--stop", "1", "--points", "3",
     "--derivatives", "1"],
])
def test_non_positive_berger_parameter_keeps_its_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "error: Berger parameter s must be positive\n"


def test_curve_json_schema(runner, schema):
    res = invoke(runner, ["curve", "--family", "product", "--tau", "0",
                          "--points", "3", "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "curve"
    assert len(obj["rows"]) == 3
    assert obj["rows"][0]["d1"] is None


def test_grad_json_schema_and_values(runner, schema):
    res = invoke(runner, ["grad", "--group", "su2", "--diag", "1,1,2",
                          "--tau", "1/4", "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "grad"
    diag = [obj["gradient"][i][i] for i in range(3)]
    assert diag == pytest.approx([-22.0, -22.0, 68.0], abs=1e-9)
    assert obj["divergence_norm"] < 1e-10


def test_grad_rejects_bad_diag(runner):
    res = runner.invoke(main, ["grad", "--diag", "1,1", "--tau", "0"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["grad", "--diag", "1,-1,1", "--tau", "0"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["grad", "--diag", "a,b,c", "--tau", "0"])
    assert res.exit_code == 2


def test_symbol_degenerate_phrase(runner):
    res = invoke(runner, ["symbol", "--dim", "5", "--tau", "-5/16",
                          "--trials", "2"])
    assert res.exit_code == 0
    assert "degenerate; kernel contains the metric direction" in res.output


def test_symbol_json_schema(runner, schema):
    res = invoke(runner, ["symbol", "--dim", "4", "--tau", "0.1",
                          "--trials", "5", "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "symbol"
    assert obj["injective"] is True


def test_symbol_requires_tau(runner):
    res = runner.invoke(main, ["symbol", "--dim", "4"])
    assert res.exit_code == 2
    assert "--tau" in res.stderr


def test_conformal_killing_json(runner, schema):
    res = invoke(runner, ["symbol", "--dim", "2", "--conformal-killing",
                          "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "conformal_killing"
    assert obj["degenerate"] is True

    res = invoke(runner, ["symbol", "--dim", "3", "--conformal-killing"])
    assert "injective" in res.output


def test_bishop_json_schema(runner, schema):
    res = invoke(runner, ["bishop", "--vol-g", "19.74", "--vol-gt", "21.7",
                          "--dim", "3", "--ftilde0", "700",
                          "--ric-upper-ok", "--ric-lower-ok",
                          "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "bishop"
    assert obj["conclusion"] == "VolumeAtLeast"


_FLAGS = ["--ric-upper-ok", "--ric-lower-ok"]
CEILING_BELOW_ONE = ["bishop", "--vol-g", "1", "--vol-gt", "0.9999999999", "--dim", "4",
                     "--ftilde0", "36", *_FLAGS]
HUGE_COMPARISON_VOLUME = ["bishop", "--vol-g", "1", "--vol-gt", "1e300", "--dim", "3",
                          "--ftilde0", "50", *_FLAGS]


@pytest.mark.parametrize("args, stdout", [
    # F = 36 exceeds the exact ceiling 36 * 0.9999999999; a 1e-9 relative
    # tolerance used to answer EqualityRigidity
    (CEILING_BELOW_ONE,
     "Inconclusive\n  normalized functional value 36 exceeds the Ricci-bound ceiling "
     "35.9999999964; a comparison hypothesis fails\n"),
    # 12 <= 50 <= 1.2e401: bounds beyond the float range used to decide nothing
    (HUGE_COMPARISON_VOLUME,
     "VolumeAtLeast\n  Vol(g~) = 1e+300 >= Vol(g) = 1 by the sandwich on the normalized "
     "functional\n"),
    (["bishop", "--vol-g", "1e300", "--vol-gt", "1e300", "--dim", "3", "--ftilde0", "5",
      *_FLAGS],
     "Inconclusive\n  normalized functional value 5 below the stability bound 1.2e+401; "
     "the comparison metric is outside the stable neighbourhood\n"),
    (["bishop", "--vol-g", "1/3", "--vol-gt", "1e-400", "--dim", "8", "--ftilde0", "-1e400",
      *_FLAGS],
     "Inconclusive\n  normalized functional value -1e+400 below the stability bound "
     "226.321305522; the comparison metric is outside the stable neighbourhood\n"),
    (["bishop", "--vol-g", "1e-400", "--vol-gt", "1e-400", "--dim", "4", "--ftilde0",
      "36e-400", *_FLAGS],
     "EqualityRigidity\n  volumes and functional values agree: equality forces isometry\n"),
])
def test_bishop_decides_exactly(runner, args, stdout):
    res = invoke(runner, args)
    assert (res.exit_code, res.stdout) == (0, stdout)


@pytest.mark.parametrize("value, error", [
    ("0", "error: vol_g must be finite and positive, got 0\n"),
    ("-1", "error: vol_g must be finite and positive, got -1\n"),
    ("nan", "error: Invalid value for '--vol-g': 'nan' is not a finite 'p/q' or decimal\n"),
    ("inf", "error: Invalid value for '--vol-g': 'inf' is not a finite 'p/q' or decimal\n"),
])
def test_bishop_refuses_a_volume_as_typed(runner, value, error):
    res = runner.invoke(main, ["bishop", "--vol-g", value, "--vol-gt", "1", "--dim", "4",
                               "--ftilde0", "1", *_FLAGS])
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", error)


def test_verify_filter_and_exit(runner, schema):
    res = invoke(runner, ["verify", "--filter", "gauss"])
    assert res.exit_code == 0
    assert "[PASS] 09-gauss-bonnet" in res.output
    assert "overall: PASS" in res.output
    assert "elapsed:" in res.stderr
    assert "elapsed:" not in res.stdout

    res = invoke(runner, ["verify", "--filter", "gauss", "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert obj["kind"] == "verify"
    assert obj["all_passed"] is True


# a decimal exponent whose value has more digits than the interpreter's
# int-string limit (4,300): refused as a bad ratio before any exact work
PAST_THE_DIGIT_LIMIT = [
    ["intervals", "--model", "sphere:4", "--tau", "1e100000"],
    ["bishop", "--vol-g", "1e100000", "--vol-gt", "1e100000", "--dim", "8", "--ftilde0", "50",
     "--ric-upper-ok", "--ric-lower-ok"],
]


@pytest.mark.parametrize("args", PAST_THE_DIGIT_LIMIT)
def test_a_ratio_past_the_digit_limit_exits_2(runner, args):
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output and "Exceeds the limit" not in res.output
    assert "'1e100000' is not a finite 'p/q' or decimal" in res.stderr


# the most digits parse_ratio accepts in a numerator or a denominator
_HALF = sys.get_int_max_str_digits() // 2


def test_parse_ratio_bounds_the_digits_of_an_exponent():
    from qcf.rational import parse_ratio

    assert parse_ratio("1e400") == 10**400 and parse_ratio("1E-400") == Fraction(1, 10**400)
    assert parse_ratio(f"1e{_HALF - 1}") == 10 ** (_HALF - 1)
    assert parse_ratio(f"-1e-{_HALF - 1}") == Fraction(-1, 10 ** (_HALF - 1))
    for text in (f"1e{_HALF}", f"-2.5e-{_HALF}", "1e100000", "3e-100000"):
        with pytest.raises(ValueError, match="more digits"):
            parse_ratio(text)


def test_parse_ratio_bounds_the_digits_of_p_and_q():
    from qcf.rational import parse_ratio

    big = "7" * _HALF
    assert parse_ratio(f"-{big}/{'9' * _HALF}") == Fraction(-int(big), int("9" * _HALF))
    assert parse_ratio(f" 3/{big} ") == Fraction(3, int(big))
    for text in (f"{big}7/3", f"3/{big}7", f"-{big}7/{big}", f"{big}7"):
        with pytest.raises(ValueError, match="more digits"):
            parse_ratio(text)


# the largest ratios parse_ratio accepts, and the same forms at the full
# int-string limit, which it refuses
MAXIMAL_RATIOS = [x for d in (_HALF, 2 * _HALF)
                  for x in (f"1e{d - 1}", f"-1e{d - 1}", f"1e-{d - 1}", f"{'7' * d}/3",
                            f"3/{'7' * d}", f"-{'7' * d}/{'9' * d}")]
# every ratio option of every command; X is the ratio
RATIO_COMMANDS = [
    ["intervals", "--model", "sphere:4", "--tau", "X"],
    ["intervals", "--model", "cp:2", "--tau", "X", "--format", "json"],
    ["intervals", "--model", "hyperbolic:6", "--tau", "X", "--lambda1", "9/2", "--format", "csv"],
    ["intervals", "--model", "hyperbolic:6", "--tau", "0", "--lambda1", "X"],
    ["rigidity", "--model", "hyperbolic:4", "--mu", "X"],
    ["rigidity", "--model", "hyperbolic:5", "--mu", "X", "--format", "json"],
    ["berger", "--tau", "X", "--critical", "--derivatives", "0"],
    ["berger", "--tau", "X", "--critical", "--format", "json"],
    ["curve", "--tau", "X", "--points", "2"],
    ["grad", "--diag", "1,1,2", "--tau", "X"],
    # symbol stays at --dim 3: at higher dimensions a tiny tau is slow
    ["symbol", "--dim", "3", "--tau", "X"],
    ["bishop", "--vol-g", "X", "--vol-gt", "1", "--dim", "4", "--ftilde0", "36", *_FLAGS],
    ["bishop", "--vol-g", "1", "--vol-gt", "X", "--dim", "4", "--ftilde0", "36", *_FLAGS],
    ["bishop", "--vol-g", "1", "--vol-gt", "1", "--dim", "4", "--ftilde0", "X", *_FLAGS],
]


@pytest.mark.parametrize("template", RATIO_COMMANDS,
                         ids=lambda t: " ".join(a for a in t if a not in _FLAGS))
def test_a_maximal_ratio_exits_0_or_with_one_error_line(runner, template):
    """What a command derives from an accepted ratio and prints (24 tau + 12,
    say) stays within the int-string limit, and a ratio past the bound is
    refused as typed."""
    for x in MAXIMAL_RATIOS:
        res = runner.invoke(main, [x if a == "X" else a for a in template])
        assert res.exception is None or isinstance(res.exception, SystemExit), (x, res.exception)
        assert "Traceback" not in res.output and "Exceeds the limit" not in res.output, x
        assert res.exit_code == 0 or (res.exit_code, res.stdout) == (2, ""), x
        if res.exit_code:
            assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: "), x
        assert all(len(line) < 200 for line in res.stderr.splitlines()), (x, res.stderr[:300])


def test_an_error_line_quotes_a_long_input_by_its_first_40_characters(runner):
    """A refused ratio of at most 40 characters is quoted whole; a longer one
    by its first 40 characters and its length, and a number of more than 40
    digits that a library error quotes by its first 40 digits and its
    digit count."""
    def stderr(tau, *extra):
        res = runner.invoke(main, ["intervals", "--model", "hyperbolic:6", "--tau", tau, *extra])
        assert res.exit_code == 2 and res.stdout == "", tau
        return res.stderr

    for tau in ("1/x", "7" * 37 + "/x", "nan"):
        assert stderr(tau) == (f"error: Invalid value for '--tau': {tau!r} is not a finite "
                               "'p/q' or decimal\n")
    assert stderr("7" * 39 + "/x") == (f"error: Invalid value for '--tau': {'7' * 39 + '/'!r}... "
                                       "(41 characters) is not a finite 'p/q' or decimal\n")
    assert stderr("0", "--lambda1", "-" + "9" * 40) == (
        f"error: lambda1 must be a positive eigenvalue, got -{'9' * 40}\n")
    assert stderr("0", "--lambda1", "-" + "9" * 41) == (
        f"error: lambda1 must be a positive eigenvalue, got -{'9' * 40}... (41 digits)\n")


# impossible spectral input: a first nonzero Laplace eigenvalue <= 0, a TT
# eigenvalue below the hyperbolic bound mu >= -4
IMPOSSIBLE_INPUT = [
    ["intervals", "--model", "hyperbolic:6", "--tau", "0", "--lambda1", "0"],
    ["intervals", "--model", "hyperbolic:6", "--tau", "0", "--lambda1", "-5"],
    ["intervals", "--model", "sphere:4", "--tau", "1", "--lambda1", "-5"],
    ["rigidity", "--model", "hyperbolic:4", "--mu", "-100"],
    ["bishop", "--vol-g", "1", "--vol-gt", "0", "--dim", "4", "--ftilde0", "1"],
    ["bishop", "--vol-g", "-1/2", "--vol-gt", "1", "--dim", "4", "--ftilde0", "1",
     "--ric-upper-ok", "--ric-lower-ok"],
]
# a model option that the family does not take or that disagrees with the
# catalog key, --lambda1 where the interval would drop it, and --tau or
# --trace-free where the conformal-Killing symbol would drop it
REFUSED_OPTIONS = [
    ["intervals", "--model", "sphere:4", "--dim", "5"],
    ["intervals", "--model", "quotient", "--dim", "4", "--order", "0"],
    ["intervals", "--model", "cp", "--m", "2", "--dim", "9"],
    ["intervals", "--model", "sphere", "--dim", "4", "--order", "7"],
    ["rigidity", "--model", "cp:2", "--m", "3"],
    ["rigidity", "--model", "quotient:4:2", "--order", "3"],
    ["intervals", "--model", "hyperbolic:6", "--lambda1", "-5"],
    ["intervals", "--model", "hyperbolic:6", "--lambda1", "100"],
    ["symbol", "--dim", "3", "--tau", "-3/8", "--conformal-killing"],
    ["symbol", "--dim", "5", "--trace-free", "--conformal-killing"],
]


@pytest.mark.parametrize("args", [
    ["intervals", "--model", "sphere:4", "--tau=inf"],
    ["berger", "--tau=nan"],
    ["berger", "--tau", "0", "--at", "1e300"],
    ["grad", "--diag", "nan,1,1", "--tau", "0"],
    ["grad", "--diag", "1,1,1", "--tau", "0", "--vol-ref", "inf"],
    ["bishop", "--vol-g", "-1", "--vol-gt", "1", "--dim", "4", "--ftilde0", "1",
     "--ric-upper-ok", "--ric-lower-ok"],
    ["bishop", "--vol-g", "1", "--vol-gt", "1", "--dim", "4", "--ftilde0", "nan"],
    ["curve", "--tau", "0", "--start", "-inf"],
    ["symbol", "--dim", "4", "--tau=nan"],
    ["verify", "--filter", "time"],
    *IMPOSSIBLE_INPUT,
    *REFUSED_OPTIONS,
])
def test_bad_input_exits_2_without_traceback(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert res.stdout == ""


@pytest.mark.parametrize("args", IMPOSSIBLE_INPUT + REFUSED_OPTIONS)
def test_impossible_input_prints_one_error_line(runner, args):
    res = runner.invoke(main, args)
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")


_ZERO_DENOMINATOR = "zero denominator in catalog file {path}"


def _extension_catalog(tmp_path, key, field, value):
    """A one-model extension file: catalog model `key` with the dotted `field` set."""
    from qcf.catalog import builtin_catalog

    doc = catalog_json([builtin_catalog()[key]])
    *parents, last = field.split(".")
    target = doc["models"][0]
    for name in parents:
        target = target[name]
    target[last] = value
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("key,field,value,named", [
    ("hyperbolic:6", "lambda1", "-5", "lambda1 -5 is not positive"),
    ("sphere:4", "volume", {"coeff": "-8/3", "pi_pow": 2},
     "volume coefficient -8/3 is not positive"),
    ("sphere:4", "scal", "4/0", _ZERO_DENOMINATOR),
    ("hyperbolic:6", "lambda1", "4/0", _ZERO_DENOMINATOR),
    ("sphere:4", "tt.tail_bound", "4/0", _ZERO_DENOMINATOR),
    ("sphere:4", "volume.coeff", "4/0", _ZERO_DENOMINATOR),
])
def test_impossible_extension_catalog_exits_2(runner, tmp_path, monkeypatch,
                                              key, field, value, named):
    """An extension model with lambda1 <= 0, a volume coefficient <= 0 or
    a ratio p/0 is refused at load time, with the model named, before any
    verdict."""
    path = _extension_catalog(tmp_path, key, field, value)
    monkeypatch.setenv("QCF_CATALOG", str(path))
    res = runner.invoke(main, ["intervals", "--model", key, "--tau", "0"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.stderr == f"error: {key}: {named.format(path=path)}\n"


@pytest.mark.parametrize("mu,code,stderr", [
    (5, 2, "error: sphere:4: known TT eigenvalues 16, 5 are not strictly increasing\n"),
    (16, 2, "error: sphere:4: known TT eigenvalues 16, 16 are not strictly increasing\n"),
    (20, 0, ""),
])
def test_an_extension_lists_known_tt_eigenvalues_in_increasing_order(runner, tmp_path,
                                                                     monkeypatch, mu, code,
                                                                     stderr):
    """A QCF_CATALOG sphere:4 whose known TT eigenvalues (16, 5) fall is
    refused with one error line at load time, before its interval could
    close at tau(5) = -7/24; a repeated eigenvalue too, and (16, 20) loads."""
    from qcf.catalog import builtin_catalog

    path = tmp_path / "extension.json"
    path.write_text(json.dumps(catalog_json([with_tt_eigenvalue(builtin_catalog()["sphere:4"],
                                                                mu)])))
    monkeypatch.setenv("QCF_CATALOG", str(path))
    res = runner.invoke(main, ["intervals", "--model", "sphere:4"])
    assert (res.exit_code, res.stderr) == (code, stderr)
    assert (res.stdout == "") == bool(code)


def test_intervals_follow_an_extension_catalog(runner, schema, tmp_path, monkeypatch):
    """A QCF_CATALOG override of product:3 with one more known TT eigenvalue,
    mu = 5, closes the interval at tau(5) = -1/8 in text and json, and the
    point verdict at -1/10, past that end, fails TT."""
    from qcf.catalog import builtin_catalog

    model = with_tt_eigenvalue(builtin_catalog()["product:3"], 5)
    path = tmp_path / "extension.json"
    path.write_text(json.dumps(catalog_json([model])))
    monkeypatch.setenv("QCF_CATALOG", str(path))
    res = invoke(runner, ["intervals", "--model", "product:3"])
    assert res.exit_code == 0
    assert res.output.splitlines()[:3] == [
        "S^3 x S^3: tau in (-7/30, -1/8) -> StrictlyStable",
        "  lower endpoint: conformal threshold (4-3n)/(2n(n-1))",
        "  upper endpoint: TT gap closes at the known eigenvalue 5"]
    res = invoke(runner, ["intervals", "--model", "product:3", "--format", "json"])
    obj = json.loads(res.stdout)
    jsonschema.validate(obj, schema)
    assert (obj["lo"], obj["hi"], obj["notes"]) == ("-7/30", "-1/8", [])
    res = invoke(runner, ["intervals", "--model", "product:3", "--tau", "-1/10"])
    assert res.output.startswith("S^3 x S^3 at tau = -1/10: FailsTT")


def _extension_file(tmp_path, monkeypatch, model, **tt_keys):
    """QCF_CATALOG set to a one-model file, with extra keys in its tt object."""
    doc = catalog_json([model])
    doc["models"][0]["tt"].update(tt_keys)
    path = tmp_path / "extension.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("QCF_CATALOG", str(path))


def test_an_extension_quotient_has_subset_spectra_without_the_flag(runner, tmp_path,
                                                                   monkeypatch):
    """A QCF_CATALOG S^4/Z_3 whose file gives no is_subset still sees only a
    subset of the covering spectrum: at tau = 1/2 the eigenvalue 16 is a
    witness that may not descend, not a definite FailsTT."""
    from qcf.catalog import make_quotient

    _extension_file(tmp_path, monkeypatch, make_quotient(4, 3))
    res = invoke(runner, ["intervals", "--model", "quotient:4:3", "--tau", "1/2"])
    assert res.output.splitlines()[:3] == [
        "S^4/Z_3 at tau = 1/2: Indeterminate (witness 16)",
        "  note: eigenvalue 16 in the forbidden interval [6, 24]; witness: first "
        "Lichnerowicz eigentensors",
        "  note: spectrum is a quotient subset: the witness may not descend"]


@pytest.mark.parametrize("key,flag,value,code", [
    ("sphere:5", "is_bound", True, 2),
    ("sphere:5", "is_subset", True, 2),
    ("quotient:4:2", "is_subset", False, 2),
    ("hyperbolic:5", "is_bound", False, 2),
    ("quotient:4:2", "is_subset", True, 0),
    ("hyperbolic:5", "is_bound", True, 0),
])
def test_an_extension_flag_must_agree_with_the_family(runner, tmp_path, monkeypatch,
                                                      key, flag, value, code):
    """is_subset and is_bound are the family's: a catalog file may state them,
    and one that contradicts the family is refused with one error line naming
    the model and the flag."""
    from qcf.catalog import builtin_catalog

    _extension_file(tmp_path, monkeypatch, builtin_catalog()[key], **{flag: value})
    res = runner.invoke(main, ["intervals", "--model", key, "--tau", "-1/5"])
    assert res.exit_code == code
    if code:
        assert (res.stdout, res.stderr) == ("", f"error: {key}: tt.{flag} "
                                                f"{json.dumps(value)} contradicts the "
                                                f"{key.partition(':')[0]} family\n")


def test_an_extension_tail_bound_is_named_by_its_value(runner, tmp_path, monkeypatch):
    """A QCF_CATALOG S^5 whose TT tail bound is 18, not 4n = 20, closes its
    interval at tau(18) = 1/20 and names the bound 18 in both texts."""
    from qcf.catalog import make_sphere

    model = make_sphere(5)
    _extension_file(tmp_path, monkeypatch, model._replace(tt=model.tt._replace(tail_bound=18)))
    res = invoke(runner, ["intervals", "--model", "sphere:5"])
    assert res.output.splitlines() == [
        "S^5: tau in (-11/40, 1/20) -> StrictlyStable",
        "  lower endpoint: conformal threshold (4-3n)/(2n(n-1))",
        "  upper endpoint: TT forbidden interval reaches the tail bound 18",
        "  note: optimality: unknown (the upper endpoint comes from the tail bound 18, "
        "not from a known eigenvalue)"]


def test_an_extension_torus_needs_its_parallel_tt_kernel(runner, tmp_path, monkeypatch):
    """Every flat torus has parallel trace-free tensors, a TT eigenvalue 0: a
    QCF_CATALOG torus:4 without it is refused at load time (exit 2), before
    its interval could claim StrictlyStable."""
    from qcf.catalog import TTData, make_torus

    model = make_torus(4)._replace(tt=TTData(known=(), tail_bound=Fraction(1)))
    _extension_file(tmp_path, monkeypatch, model)
    res = runner.invoke(main, ["intervals", "--model", "torus:4"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == ("error: torus:4: first TT eigenvalue None violates the flat "
                          "identity mu1 = 0 (parallel trace-free tensors)\n")


@pytest.mark.parametrize("args", [
    ["grad", "--diag", "1e300,1,1", "--tau", "0"],
    ["grad", "--diag", "1e-300,1,1", "--tau", "0"],
    ["grad", "--diag", "1,1,1", "--tau", "0", "--vol-ref", "1e308"],
    ["berger", "--tau", "0", "--at", "1e80", "--derivatives", "0"],
    ["curve", "--tau", "0", "--start", "1e100", "--stop", "2e100", "--points", "3"],
    ["curve", "--tau", "0", "--start", "1e100", "--stop", "2e100", "--points", "3",
     "--format", "json"],
    ["curve", "--family", "product", "--tau", "0", "--start", "300", "--stop", "400",
     "--points", "3", "--derivatives", "1"],
    ["curve", "--family", "product", "--tau", "0", "--start", "300", "--stop", "400",
     "--points", "3", "--derivatives", "1", "--jobs", "2"],
    ["curve", "--family", "product", "--tau", "0", "--start", "1000", "--stop", "1001",
     "--points", "2"],
    ["curve", "--tau", "0", "--start", "1e200", "--stop", "2e200", "--points", "2"],
])
def test_non_finite_result_exits_2(runner, args):
    """Finite input whose float evaluation overflows is bad input, not nan or inf.

    The one error line names the overflow, and no warning is raised: grad
    silences numpy's float warnings, and curve, --jobs included, runs no
    numpy code.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, args)
    assert [str(w.message) for w in caught] == []
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert "float overflow" in res.stderr


GRID_OVERFLOW = "error: the sweep grid from {} to {} overflows a float\n"


@pytest.mark.parametrize("argv,stderr", [
    # stop - start overflows: refused before any point, and before a huge tau
    (["curve", "--family", "product", "--tau", "1e400", "--start", "-1e308", "--stop", "1e308",
      "--points", "3"], GRID_OVERFLOW.format("-1e+308", "1e+308")),
    (["curve", "--tau", "1e400", "--start", "-1e308", "--stop", "1e308", "--points", "3"],
     GRID_OVERFLOW.format("-1e+308", "1e+308")),
    (["curve", "--family", "product", "--tau", "0", "--start", "1e308", "--stop", "-1e308",
      "--points", "2", "--derivatives", "3", "--jobs", "2"],
     GRID_OVERFLOW.format("1e+308", "-1e+308")),
    (["curve", "--tau", "0", "--start", "-1.7e308", "--stop", "1e308", "--derivatives", "1",
      "--format", "json"], GRID_OVERFLOW.format("-1.7e+308", "1e+308")),
    # on a finite grid a huge tau overflows at the first point
    (["curve", "--family", "product", "--tau", "1e400"], "error: float overflow at this input\n"),
    (["curve", "--tau", "1e400", "--derivatives", "3"], "error: float overflow at this input\n"),
    # exp(t) overflows at the first point
    (["curve", "--family", "product", "--tau", "0", "--start", "1000", "--stop", "1001",
      "--points", "2"], "error: float overflow at this input\n"),
])
def test_curve_exit_2_precedence(runner, argv, stderr):
    """Which one-line error a failing sweep prints: the grid is checked first,
    then the points in order, the first point's checks before tau is
    converted to a float."""
    res = runner.invoke(main, argv)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", stderr)


def test_sweep_grid_matches_np_linspace_bitwise():
    """The curve grid is np.linspace, bit for bit: 2..3000 points on both
    default ranges, seeded ranges from 1e-300 to 1e300 in size, a zero step,
    denormal endpoints and signed zeros, and ranges whose stop - start
    overflows (NaN and inf entries, which curve then refuses)."""
    import numpy as np

    from qcf.cli import _linspace

    cases = [(a, b, n) for a, b in ((0.2, 2.0), (-1.0, 1.0)) for n in range(2, 3001)]
    rng = np.random.default_rng(10)
    for _ in range(2000):
        a, b = (rng.standard_normal(2) * 10.0 ** rng.integers(-300, 300, size=2)).tolist()
        cases.append((a, b, int(rng.integers(2, 300))))
    cases += [(1.5, 1.5, 7), (-0.0, 0.0, 5), (0.0, -0.0, 3), (-0.0, -0.0, 2),
              (5e-324, 1e-323, 9), (0.0, 5e-324, 4), (-5e-324, 5e-324, 1000),
              (1e-310, 1.00001e-310, 50), (2.0, 2.0 + 2.0 ** -51, 100),
              (-1e308, 1e308, 3), (1e308, -1e308, 5), (-1.7e308, 1e308, 2),
              (-8e307, 8e307, 11), (-1.7976931348623157e308, 1.7976931348623157e308, 4)]

    def bits(xs):
        return np.asarray(xs, dtype=float).view(np.int64).tolist()

    with np.errstate(all="ignore"):
        bad = [c for c in cases if bits(_linspace(*c)) != bits(np.linspace(*c))]
    assert bad == []


def _corrupt_catalog(tmp_path, monkeypatch):
    """An extension catalog on which verify's catalog criterion fails (exit 1)."""
    from qcf.catalog import builtin_catalog

    doc = catalog_json([builtin_catalog()["cp:2"]])
    doc["models"][0]["tt"]["known"][0]["mu"] = "30"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("QCF_CATALOG", str(path))


def test_verify_fails_on_corrupted_catalog(runner, tmp_path, monkeypatch):
    _corrupt_catalog(tmp_path, monkeypatch)
    res = runner.invoke(main, ["verify", "--filter", "catalog"])
    assert res.exit_code == 1
    assert "[FAIL] 00-catalog" in res.output
    assert "complex-projective identity" in res.output


def test_zero_denominator_catalog_fails_every_command_cleanly(runner, tmp_path, monkeypatch):
    """A ratio p/0 passes the schema's pattern; every command reports it as
    one error line (exit 2), and verify as a failed catalog criterion."""
    path = _extension_catalog(tmp_path, "sphere:4", "tt.tail_bound", "4/0")
    monkeypatch.setenv("QCF_CATALOG", str(path))
    error = f"error: sphere:4: {_ZERO_DENOMINATOR.format(path=path)}\n"
    for args in (["intervals", "--model", "sphere:4"],
                 ["rigidity", "--model", "cp:2", "--format", "json"]):
        res = runner.invoke(main, args)
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", error)
    res = runner.invoke(main, ["verify", "--filter", "00"])
    assert res.exit_code == 1
    assert res.stdout.startswith("[FAIL] 00-catalog: measured sphere:4: zero denominator")


def test_verify_stdout_byte_identical(runner):
    a = invoke(runner, ["verify", "--filter", "intervals"])
    b = invoke(runner, ["verify", "--filter", "intervals"])
    assert a.stdout == b.stdout


# The commands whose decisions are Fraction arithmetic on catalog data, with
# their exit codes. None of them may import numpy, and jsonschema only to
# validate a JSON report. Each --jobs 2 sweep is listed beside its --jobs 1
# twin, whose output it must repeat.
NUMPY_FREE = [
    (["intervals", "--model", "sphere:4"], 0),
    (["intervals", "--model", "cp:2", "--tau", "1/5"], 0),
    (["intervals", "--model", "torus:6", "--tau", "-3/2"], 0),
    (["intervals", "--model", "hyperbolic:6", "--tau", "0"], 3),
    (["intervals", "--model", "hyperbolic:6", "--tau", "0", "--lambda1", "0"], 2),
    (["intervals", "--model", "klein:4"], 2),
    (["rigidity", "--model", "cp:2"], 0),
    (["rigidity", "--model", "hyperbolic:4", "--mu", "3", "--mu", "7/2"], 0),
    (["bishop", "--vol-g", "10", "--vol-gt", "11", "--dim", "4", "--ftilde0", "3000"], 0),
    (["bishop", "--vol-g", "1e308", "--vol-gt", "1e308", "--dim", "3", "--ftilde0", "0",
      "--ric-upper-ok", "--ric-lower-ok"], 0),
    (CEILING_BELOW_ONE, 0),
    (["bishop", "--vol-g", "1", "--vol-gt", "1e400", "--dim", "5", "--ftilde0", "1e100",
      "--ric-upper-ok", "--ric-lower-ok"], 0),
    (["berger", "--tau", "1/3", "--critical"], 0),
    (["symbol", "--dim", "4", "--conformal-killing"], 0),
    (["symbol", "--dim", "3", "--tau", "-3/8", "--conformal-killing"], 2),
    (["curve", "--tau", "1/3", "--derivatives", "3"], 0),
    (["curve", "--family", "product", "--tau", "-1/2", "--points", "30", "--derivatives", "3"], 0),
    (["curve", "--tau", "1/7", "--points", "100", "--derivatives", "3"], 0),
    (["curve", "--tau", "1/7", "--points", "100", "--derivatives", "3", "--jobs", "2"], 0),
    (["curve", "--family", "product", "--tau", "0", "--derivatives", "3"], 0),
    (["curve", "--family", "product", "--tau", "0", "--derivatives", "3", "--jobs", "2"], 0),
    (["curve", "--family", "product", "--tau", "0", "--start", "1000", "--stop", "1001"], 2),
    (["curve", "--tau", "0", "--start", "-1e308", "--stop", "1e308"], 2),
]
_FORMATS = {"intervals": ("text", "csv", "json"), "rigidity": ("text", "csv", "json"),
            "curve": ("csv", "json")}
_WATCHED = ("numpy", "jsonschema", "dataclasses", "concurrent.futures", "logging", "click")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_numpy_free_commands_import_neither_numpy_nor_jsonschema(fmt):
    """The commands run in order in one fresh process per format; after each
    one the process reports its exit code, its stdout and which of the
    watched modules it has imported. Modules only accumulate, so the first
    command that pulls one in is named by the failure.

    No command loads numpy, concurrent.futures, logging or click, the
    --jobs 2 sweeps included, and jsonschema only for --format json;
    dataclasses comes only with jsonschema, which imports it. Each --jobs 2
    sweep prints the bytes of its --jobs 1 twin."""
    import subprocess
    import sys

    argvs = [argv + ["--format", fmt] for argv, _ in NUMPY_FREE
             if fmt in _FORMATS.get(argv[0], ("text", "json"))]
    code = ("import contextlib, io, json, sys\n"
            "from qcf.cli import main\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    try:\n"
            "        with contextlib.redirect_stdout(buf):\n"
            "            main.main(args=argv, prog_name='qcf')\n"
            "    except SystemExit as exc:\n"
            "        out.append([argv, exc.code, buf.getvalue(),\n"
            "                    [m for m in sys.argv[2:] if m in sys.modules]])\n"
            "print(json.dumps(out))\n")
    p = subprocess.run([sys.executable, "-c", code, json.dumps(argvs), *_WATCHED],
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    rows = json.loads(p.stdout.strip().splitlines()[-1])
    codes = {tuple(argv): c for argv, c in NUMPY_FREE}
    assert [r[1] for r in rows] == [codes[tuple(r[0][:-2])] for r in rows]
    assert [r[0] for r in rows if "numpy" in r[3]] == []
    if fmt != "json":
        assert [r[0] for r in rows if "jsonschema" in r[3]] == []
    assert [r[0] for r in rows if "dataclasses" in r[3] and "jsonschema" not in r[3]] == []
    for mod in ("concurrent.futures", "logging", "click"):
        assert [r[0] for r in rows if mod in r[3]] == []
    stdout = {tuple(r[0]): r[2] for r in rows}
    jobs = [r for r in rows if "--jobs" in r[0]]
    assert len(jobs) == (2 if fmt in _FORMATS["curve"] else 0)
    for argv, _, out, _ in jobs:
        i = argv.index("--jobs")
        assert out and out == stdout[tuple(argv[:i] + argv[i + 2:])], argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_numpy_commands_do_not_import_click(fmt):
    """grad, symbol --tau and verify load numpy, and still not click: the
    parser is argparse's."""
    import subprocess

    argvs = [["grad", "--diag", "1,1,2", "--tau", "1/2"], ["symbol", "--dim", "4", "--tau", "1/3"],
             ["verify", "--filter", "intervals"]]
    code = ("import contextlib, io, json, sys\n"
            "from qcf.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            main.main(args=argv, prog_name='qcf')\n"
            "        except SystemExit as exc:\n"
            "            assert exc.code == 0, (argv, exc.code)\n"
            "print(json.dumps(['numpy' in sys.modules, 'click' in sys.modules]))\n")
    p = subprocess.run([sys.executable, "-c", code,
                        json.dumps([argv + ["--format", fmt] for argv in argvs])],
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout.strip().splitlines()[-1]) == [True, False]


# How a process ends: the entry point (`main()`) freezes the collector's heap
# once its command is done; `main.main`, which in-process callers run, does not.
EXITS = [(["intervals", "--model", "sphere:4"], 0),
         (["verify", "--filter", "catalog"], 1),
         (["intervals", "--model", "klein:4"], 2),
         (["intervals", "--model", "hyperbolic:6", "--tau", "0"], 3)]


@pytest.mark.parametrize("argv,code", EXITS, ids=[str(code) for _, code in EXITS])
def test_the_entry_point_freezes_once_and_keeps_the_commands_exit_code(
        argv, code, tmp_path, monkeypatch, capsys):
    if code == 1:
        _corrupt_catalog(tmp_path, monkeypatch)
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr()))
    monkeypatch.setattr(sys, "argv", ["qcf", *argv])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == code
    # one freeze, after the command printed its report or its error line
    assert len(frozen) == 1
    assert (frozen[0].out if code in (0, 1) else frozen[0].err) != ""


@pytest.mark.parametrize("argv,code", EXITS, ids=[str(code) for _, code in EXITS])
def test_the_in_process_handler_leaves_the_collector_as_it_is(
        argv, code, tmp_path, monkeypatch):
    if code == 1:
        _corrupt_catalog(tmp_path, monkeypatch)
    before = gc.get_freeze_count()
    assert QcfRunner().invoke(main, argv).exit_code == code
    assert gc.get_freeze_count() == before


def test_a_process_runs_its_exit_hooks_after_the_freeze():
    """atexit hooks still run, and see the frozen heap; stdout is flushed and
    the exit code kept."""
    code = ("import atexit, gc, sys\n"
            "from qcf.cli import main\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0,"
            " file=sys.stderr))\n"
            "sys.argv = ['qcf', *sys.argv[1:]]\n"
            "main()\n")
    p = subprocess.run([sys.executable, "-c", code, "intervals", "--model", "sphere:4"],
                       capture_output=True, text=True, timeout=60)
    res = QcfRunner().invoke(main, ["intervals", "--model", "sphere:4"])
    assert (p.returncode, p.stdout, p.stderr) == (0, res.stdout, "frozen True\n")


_CLOSED = "error: stdout was closed before the output was written\n"


def _env(unbuffered: bool) -> dict:
    """The environment with PYTHONUNBUFFERED set to 1, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


_TEXT_CURVE = ["curve", "--points", "20000", "--tau", "0"]
_JSON_CURVE = ["curve", "--points", "2000", "--tau", "0", "--format", "json"]


@pytest.mark.parametrize("argv,unbuffered", [
    (_TEXT_CURVE, False), (_JSON_CURVE, False), (_TEXT_CURVE, True), (_JSON_CURVE, True)],
    ids=["text", "json", "text-unbuffered", "json-unbuffered"])
def test_a_reader_that_closes_stdout_early_gets_one_error_line(argv, unbuffered):
    """`qcf curve ... | head -c 10`: the command meets the closed pipe while it
    writes, and ends with one stderr line and exit 1, not a traceback, with
    stdout buffered or not (PYTHONUNBUFFERED)."""
    p = subprocess.Popen([sys.executable, "-m", "qcf.cli", *argv], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=_env(unbuffered))
    head = p.stdout.read(10)
    p.stdout.close()
    stderr = p.stderr.read().decode()
    p.stderr.close()
    assert p.wait(timeout=60) == 1
    assert len(head) == 10
    assert "Traceback" not in stderr
    assert stderr.splitlines(keepends=True) == [_CLOSED]


def _into_closed_pipe(argv, env):
    """A `qcf` process whose stdout is a pipe closed before it starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "qcf.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60, env=env)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv,unbuffered", [
    (["intervals", "--model", "sphere:4"], False), (["intervals", "--model", "sphere:4"], True),
    (["intervals", "--help"], False), (["intervals", "--help"], True)],
    ids=["buffered", "unbuffered", "help", "help-unbuffered"])
def test_a_report_for_a_closed_pipe_gets_one_error_line(argv, unbuffered):
    """A report or a command's help that fits the stdout buffer meets a pipe
    closed before the command ran at the handler's flush, not at interpreter
    shutdown. The entry gives an unbuffered stdout a buffer, so argparse's
    write of the help, which drops a failed write, cannot hide the pipe."""
    p = _into_closed_pipe(argv, _env(unbuffered))
    assert (p.returncode, p.stderr) == (1, _CLOSED)


def test_a_failing_verify_for_a_closed_pipe_keeps_its_exit_code(tmp_path, monkeypatch):
    """verify returns its exit 1 to the handler, which flushes stdout before
    it exits: a closed pipe adds the error line, where it was exit 120 and
    Python's "Exception ignored" report at shutdown."""
    _corrupt_catalog(tmp_path, monkeypatch)
    p = _into_closed_pipe(["verify", "--filter", "catalog"], _env(False))
    assert p.returncode == 1
    elapsed, closed = p.stderr.splitlines(keepends=True)
    assert elapsed.startswith("elapsed: ") and closed == _CLOSED
