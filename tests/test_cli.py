"""CLI behavior: formats, determinism, exit codes, schema-valid JSON."""

import json
import warnings
from importlib import resources

import jsonschema
import pytest
from click.testing import CliRunner

from qcf.cli import main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("qcf").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture
def runner():
    return CliRunner()


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


# impossible spectral input: a first nonzero Laplace eigenvalue <= 0, a TT
# eigenvalue below the hyperbolic bound mu >= -4
IMPOSSIBLE_INPUT = [
    ["intervals", "--model", "hyperbolic:6", "--tau", "0", "--lambda1", "0"],
    ["intervals", "--model", "hyperbolic:6", "--tau", "0", "--lambda1", "-5"],
    ["intervals", "--model", "sphere:4", "--tau", "1", "--lambda1", "-5"],
    ["rigidity", "--model", "hyperbolic:4", "--mu", "-100"],
]
# a model option that the family does not take or that disagrees with the
# catalog key, and --lambda1 where the interval would drop it
REFUSED_OPTIONS = [
    ["intervals", "--model", "sphere:4", "--dim", "5"],
    ["intervals", "--model", "quotient", "--dim", "4", "--order", "0"],
    ["intervals", "--model", "cp", "--m", "2", "--dim", "9"],
    ["intervals", "--model", "sphere", "--dim", "4", "--order", "7"],
    ["rigidity", "--model", "cp:2", "--m", "3"],
    ["rigidity", "--model", "quotient:4:2", "--order", "3"],
    ["intervals", "--model", "hyperbolic:6", "--lambda1", "-5"],
    ["intervals", "--model", "hyperbolic:6", "--lambda1", "100"],
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

    obj = builtin_catalog()[key].to_json()
    *parents, last = field.split(".")
    target = obj
    for name in parents:
        target = target[name]
    target[last] = value
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps({"schema_version": 1, "models": [obj]}))
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


def test_verify_fails_on_corrupted_catalog(runner, tmp_path, monkeypatch):
    from qcf.catalog import builtin_catalog

    obj = builtin_catalog()["cp:2"].to_json()
    obj["tt"]["known"][0]["mu"] = "30"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "models": [obj]}))
    monkeypatch.setenv("QCF_CATALOG", str(path))
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
    (["berger", "--tau", "1/3", "--critical"], 0),
    (["symbol", "--dim", "4", "--conformal-killing"], 0),
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
_WATCHED = ("numpy", "jsonschema", "dataclasses", "concurrent.futures", "logging")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_numpy_free_commands_import_neither_numpy_nor_jsonschema(fmt):
    """The commands run in order in one fresh process per format; after each
    one the process reports its exit code, its stdout and which of the
    watched modules it has imported. Modules only accumulate, so the first
    command that pulls one in is named by the failure.

    No command loads numpy, concurrent.futures or logging, the --jobs 2
    sweeps included, and jsonschema only for --format json; dataclasses
    comes only with jsonschema, which imports it. Each --jobs 2 sweep
    prints the bytes of its --jobs 1 twin."""
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
    for mod in ("concurrent.futures", "logging"):
        assert [r[0] for r in rows if mod in r[3]] == []
    stdout = {tuple(r[0]): r[2] for r in rows}
    jobs = [r for r in rows if "--jobs" in r[0]]
    assert len(jobs) == (2 if fmt in _FORMATS["curve"] else 0)
    for argv, _, out, _ in jobs:
        i = argv.index("--jobs")
        assert out and out == stdout[tuple(argv[:i] + argv[i + 2:])], argv
