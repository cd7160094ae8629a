"""Fuzz every CLI command with extreme, malformed and non-finite inputs.

Whatever the input, a command ends in exit 0 (a result), 2 (bad input)
or 3 (missing spectral data), never in a traceback, and a failure prints
one stderr line. A result never prints nan or inf as a number, and JSON
output is strict JSON that validates against the report schema. A
second fuzz feeds `bishop` exact volume sandwiches and checks its
conclusion against the exact rule. Sizes stay small (symbol dimension
at most 6, at most 21 curve points, only cheap verify criteria) so that
the whole run is quick and deterministic.
"""

import json
import re
from fractions import Fraction
from importlib import resources

import jsonschema
from conftest import QcfRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qcf.cli import main

SCHEMA = json.loads(resources.files("qcf").joinpath("schemas/report.schema.json").read_text())

# numbers as the user types them: plain, extreme, non-finite or malformed
PLAIN = st.one_of(st.fractions(-10, 10, max_denominator=60).map(str),
                  st.sampled_from(["0", "1", "-1", "1/3", "-3/8", "-1/2", "2.5"]))
POSITIVE = st.floats(0.01, 100).map(repr)
EXTREME = st.one_of(
    st.sampled_from(["1e80", "-1e80", "1e300", "-1e300", "1e-300", "5e-324", "1e400",
                     "-1e400", "1e-400", "1/0", "nan", "-nan", "inf", "-inf",
                     "Infinity", "abc", ""]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
)
# (one_of would flatten nested choices and weigh every branch alike)
NUMBER = st.booleans().flatmap(lambda plain: PLAIN if plain else EXTREME)
# volumes, diagonal entries and the Berger parameter: positive 3 times in 4
PHYSICAL = st.integers(0, 3).flatmap(lambda k: POSITIVE if k else NUMBER)
MODEL = st.sampled_from([
    "sphere:3", "sphere:4", "sphere:8", "hyperbolic:3", "hyperbolic:5", "torus:3",
    "torus:7", "cp:2", "cp:4", "product:2", "product:4", "quotient:4:2", "sphere",
    "hyperbolic", "torus", "cp", "product", "quotient", "nope", "sphere:99"])
# criteria that run in well under a second, plus one filter that matches none
CHEAP_FILTERS = ["catalog", "intervals", "berger", "product", "divergence", "symbol",
                 "rigidity", "property", "no-such-criterion"]

_NONFINITE = re.compile(r"(?i)(?<![\w.])[-+]?(nan|inf)(?!\w)")
# documented unbounded interval endpoints: "(-inf, ..." and "..., inf)" in
# text, ",-inf," and ",inf," in csv
_ENDPOINT = re.compile(r"(?<=[(,])-inf(?=,)|(?<=, )inf(?=[)\]])|(?<=,)inf(?=,)")


# a volume or a bound that a bishop note prints
_BISHOP_NUMBER = re.compile(r"(?:stability bound|ceiling|Vol\(g~?\) =) ([^\s;]+)")


def _check_bishop(argv, notes):
    """Every printed volume and bound is positive (none reads 0), and
    VolumeAtLeast never prints Vol(g~) < Vol(g)."""
    for note in notes:
        printed = [Fraction(x) for x in _BISHOP_NUMBER.findall(note)]
        assert all(x > 0 for x in printed), (argv, note)
        if note.startswith("Vol(g~) = "):
            assert printed[0] >= printed[1], (argv, note)


def _option(name, values):
    return values.map(lambda v: [f"{name}={v}"])


def _maybe(name, values):
    return st.one_of(st.just([]), _option(name, values))


def _flag(name):
    return st.sampled_from([[], [name]])


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


def _model_options():
    return st.tuples(_option("--model", MODEL), _maybe("--dim", st.integers(-1, 10)),
                     _maybe("--m", st.integers(0, 5)),
                     _maybe("--order", st.integers(0, 4))).map(
        lambda ps: [a for p in ps for a in p])


def _fmt(*choices):
    return _maybe("--format", st.sampled_from(list(choices) + ["xml"]))


ARGV = st.one_of(
    _argv("intervals", _model_options(), _maybe("--tau", NUMBER),
          _maybe("--lambda1", NUMBER), _fmt("text", "json", "csv")),
    _argv("rigidity", _model_options(), _maybe("--count", st.sampled_from([8, 1, 64, 0, 65])),
          st.lists(_option("--mu", NUMBER), max_size=3).map(
              lambda ps: [a for p in ps for a in p]),
          _fmt("text", "json", "csv")),
    _argv("berger", _option("--tau", NUMBER), _maybe("--at", PHYSICAL),
          _maybe("--derivatives", st.integers(-1, 4)), _flag("--critical"),
          _fmt("text", "json")),
    _argv("curve", _maybe("--family", st.sampled_from(["berger", "product", "torus"])),
          _option("--tau", NUMBER), _maybe("--start", NUMBER), _maybe("--stop", NUMBER),
          _maybe("--points", st.sampled_from([5, 2, 21, 11, 1, 0])),
          _maybe("--derivatives", st.integers(-1, 3)),
          _maybe("--jobs", st.sampled_from([1, 2, 0])), _fmt("csv", "json")),
    _argv("grad", _maybe("--group", st.sampled_from(["su2", "su2xr"])),
          _option("--diag", st.sampled_from([3, 4, 3, 4, 2, 5]).flatmap(
              lambda k: st.lists(PHYSICAL, min_size=k, max_size=k)).map(",".join)),
          _option("--tau", NUMBER), _maybe("--vol-ref", PHYSICAL), _fmt("text", "json")),
    _argv("symbol", _option("--dim", st.sampled_from([3, 4, 5, 6, 2, 1])), _maybe("--tau", NUMBER),
          _maybe("--trials", st.integers(0, 5)), _maybe("--seed", st.integers(-3, 3)),
          _flag("--trace-free"), _flag("--conformal-killing"), _fmt("text", "json")),
    _argv("bishop", _option("--vol-g", PHYSICAL), _option("--vol-gt", PHYSICAL),
          _option("--dim", st.sampled_from([4, 3, 5, 8, 2, 9])), _option("--ftilde0", NUMBER),
          _flag("--ric-upper-ok"), _flag("--ric-lower-ok"), _fmt("text", "json")),
    _argv("verify", _option("--filter", st.sampled_from(CHEAP_FILTERS)),
          _maybe("--seed", st.integers(-5, 5)), _fmt("text", "json")),
)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ARGV)
def test_cli_fuzz_exit_codes_and_output(argv):
    res = QcfRunner().invoke(main, argv)
    assert res.exit_code in (0, 2, 3), (argv, res.exit_code, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (argv, res.exception)
    assert "Traceback" not in res.output, argv
    if res.exit_code != 0:
        assert res.stderr.count("\n") == 1, (argv, res.stderr)
        assert res.stderr.startswith(("error: ", "insufficient data: ")), (argv, res.stderr)
        return
    if "--format=json" in argv:
        obj = json.loads(res.stdout, parse_constant=_reject_constant)
        jsonschema.validate(obj, SCHEMA)
        if argv[0] == "bishop":
            _check_bishop(argv, obj["notes"])
        return
    text = res.stdout
    if argv[0] == "intervals" and not any(a.startswith("--tau=") for a in argv):
        text = _ENDPOINT.sub("", text)
    assert not _NONFINITE.search(text), (argv, res.stdout)
    if argv[0] == "bishop":
        _check_bishop(argv, [line.strip() for line in text.splitlines()[1:]])


# Vol(g) = u^n, Vol(g~) = v^n and F~0 = n(n-1)^2 w^4 for exact positive u,
# v, w: the chain concludes exactly when u <= w <= v
SIZE = st.fractions(Fraction(1, 40), 40, max_denominator=40)
NUDGE = st.fractions(Fraction(1, 10**6), Fraction(1, 10), max_denominator=10**6)


@st.composite
def _sandwich(draw):
    """(n, u, v, w): w inside [u, v], on an equality u = v = w, or just
    below u or above v (where v may lie below u)."""
    n, u = draw(st.integers(3, 8)), draw(SIZE)
    where = draw(st.sampled_from(["inside", "equal", "below", "above"]))
    if where == "equal":
        return n, u, u, u
    if where == "inside":
        v = u + draw(SIZE)
        return n, u, v, u + draw(st.fractions(0, 1, max_denominator=20)) * (v - u)
    v = u * draw(st.fractions(Fraction(1, 2), 2, max_denominator=20))
    return n, u, v, u * (1 - draw(NUDGE)) if where == "below" else v * (1 + draw(NUDGE))


def _bishop_rule(u, v, w) -> str:
    if w < u:
        return "below the stability bound"
    if w > v:
        return "exceeds the Ricci-bound ceiling"
    return "EqualityRigidity" if u == v else "VolumeAtLeast"


def test_bishop_fuzz_decides_sandwiches_by_the_exact_rule():
    seen = set()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_sandwich(), st.sampled_from(["text", "json"]))
    def check(case, fmt):
        n, u, v, w = case
        argv = ["bishop", f"--vol-g={u ** n}", f"--vol-gt={v ** n}", f"--dim={n}",
                f"--ftilde0={n * (n - 1) ** 2 * w ** 4}", "--ric-upper-ok", "--ric-lower-ok",
                f"--format={fmt}"]
        res = QcfRunner().invoke(main, argv)
        assert (res.exit_code, res.stderr) == (0, ""), (argv, res.output)
        if fmt == "json":
            obj = json.loads(res.stdout, parse_constant=_reject_constant)
            jsonschema.validate(obj, SCHEMA)
            conclusion, notes = obj["conclusion"], obj["notes"]
        else:
            conclusion, *notes = [line.strip() for line in res.stdout.splitlines()]
        want = _bishop_rule(u, v, w)
        if conclusion == "Inconclusive":
            assert len(notes) == 1 and want in notes[0], (argv, notes)
        else:
            assert conclusion == want, argv
        _check_bishop(argv, notes)
        seen.add(want)

    check()
    assert seen == {"VolumeAtLeast", "EqualityRigidity", "below the stability bound",
                    "exceeds the Ricci-bound ceiling"}
