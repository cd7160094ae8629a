"""Source hygiene: no unused import in src/qcf or tests, no src/qcf
function, class or method without a caller, and no src/qcf import that
slows every process's start-up.

A standard-library `ast` scan, so it needs no linter. An imported name
is used when the module reads it anywhere or lists it in `__all__`; an
import line marked `# noqa: F401` is deliberate and exempt. A
module-level function or class of src/qcf whose name starts with an
underscore is used when its module reads the name anywhere; names that
only other modules read belong in the public interface. Beyond that,
every module-level function and class of src/qcf and every method of its
classes has a caller outside the tests: src/qcf reads the name outside
the definition itself (a listing in `__all__` is a string, not a read;
`super().name` in an override reads the base class's method, which the
base's callers reach), or a perfbench/*.py identifier reads it, or it is
the last part of a `qcf.` dotted string there, as in the span tracer's
SITES. Names match as identifiers, unresolved, so one read covers every
definition of that name; a method is reached only as an attribute
(`x.name`), so a local variable of the same name does not count for it.
A method whose name another src/qcf class defines as well (the reports'
`to_json`) is the exception: it has a caller only where the receiver of
a read resolves to its class through annotations, constructor calls and
`self` (or a perfbench dotted string names it as `Class.method`), so a
second `display_name` does not share `ModelSpace.display_name`'s reads.
Dunder names and `_make` overrides (the NamedTuple protocol that
`_replace` calls) are exempt; the CLI commands are read from `cli`'s
command table like any other name. What only tests call lives in the
tests. No module of src/qcf imports `click`, anywhere, function bodies
included: the CLI parses with argparse, which imports in a tenth of the
time. No module of src/qcf imports `dataclasses` (records are
NamedTuples, whose classes are built without generating and compiling
methods), and none imports `concurrent`, `threading` or
`multiprocessing` anywhere, function bodies included: qcf computes on
one thread, and `concurrent.futures` imports `logging` as well. No
module of src/qcf calls `np.tensordot` or `np.moveaxis`: both normalise
their axis arguments in Python on every call, which on the n <= 8
tensors here costs several times the contraction itself (raising both
indices of a 4 x 4 tensor that way takes about 35 us, one matmul per
index about 6 us); a matmul per index (`tensor_core.raise_all`,
`homogeneous._cov1`) does the same contraction with the same bits. The
curvature layer (`tensor_core`, `homogeneous`, `catalog`, `verify`)
holds exact data in one form, `tensor_core._Exact`, so none of its
modules builds an object-dtype array (`dtype=object`) or names that
dtype (`np.dtype(object)`): a Fraction array there would be a second
exact form, with a conversion at every boundary between the two. The
exceptions are `_Exact.fractions()`, the one place that hands a caller a
Fraction array, and the `_Exact.dtype` class attribute. Numerators past
int64, which `_Exact` keeps as Python ints, are an integer array chosen
by its bound and are not named this way. Only the entry point
(`cli._Main.__call__`) freezes the collector's heap (`gc.freeze`): a
frozen heap is never collected again, so no code that a long-lived
caller runs may freeze it. The CLI has one error path: in
`cli`, only the entry point's handler (`_Main.main`) calls `sys.exit` or
writes to stderr (`file=sys.stderr`, `sys.stderr.write`, or an
`err=True` echo), apart from `verify`'s `elapsed:` line (a command
returns its exit code, as verify's 1 on a failed criterion, and the
handler exits with it once stdout is flushed), and no code calls
`np.errstate` (the handler ignores numpy's float warnings). A `__new__` in src/qcf (the
checking records' constructors) takes its fields by name, with no
`*args` or `**kwargs`: forwarding them through `super().__new__` binds
them in the NamedTuple's generated constructor, one more Python call per
record, which made a record cost several times a positional one on the
verdict path. Test modules are scanned for imports only: pytest finds
their fixtures by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qcf"
BENCH = TESTS.parent / "perfbench"


def _read_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _top_package(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    return [(node.module or "").partition(".")[0]]


_CONCURRENCY = ("concurrent", "threading", "multiprocessing")
_AXIS_SHUFFLES = ("tensordot", "moveaxis")
# The one exception: qcf.cli.__getattr__ serves the name ThreadPoolExecutor,
# which no qcf code looks up, because the benchmark tracer (perfbench/spans.py)
# subclasses it. It goes when the tracer drops its TracedPool.
_CONCURRENCY_EXEMPT = ("cli", "__getattr__")


_EXACT_LAYER = ("tensor_core", "homogeneous", "catalog", "verify")
_OBJECT_DTYPE_EXEMPT = (("_Exact", "fractions"), ("_Exact", "dtype"))


# cli ends a command and prints to stderr only in the entry point's handler,
# apart from this call in verify
_ERROR_HANDLER = ("_Main", "main")
_VERIFY_EXEMPT = "print(f'elapsed: {report.elapsed:.2f}s', file=sys.stderr)"

# the one place that may call gc.freeze: the process ends after it
_FREEZER = ("cli", ("_Main", "__call__"))


def _owners(tree: ast.Module):
    """(node, (class or None, the function or assigned name it defines)) for
    each top-level statement and each statement of a top-level class body."""
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            name = getattr(node, "name", None)
            if isinstance(node, ast.Assign):
                name = next((t.id for t in node.targets if isinstance(t, ast.Name)), None)
            yield node, (top.name if node is not top else None, name)


def _names_object_dtype(node: ast.AST) -> bool:
    """A dtype=object keyword or an np.dtype(object) call."""
    if isinstance(node, ast.keyword):
        value = node.value if node.arg == "dtype" else None
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dtype":
        value = node.args[0] if node.args else None
    else:
        return False
    return isinstance(value, ast.Name) and value.id == "object"


def _is_error_output(node: ast.AST) -> bool:
    """A sys.exit call, or a call that writes to stderr: sys.stderr.write, or
    a file=sys.stderr or err=True keyword."""
    return isinstance(node, ast.Call) and (
        ast.unparse(node.func) in ("sys.exit", "sys.stderr.write")
        or any(ast.unparse(k) in ("file=sys.stderr", "err=True") for k in node.keywords))


def _names_gc_freeze(node: ast.AST) -> bool:
    """A gc.freeze read or a `from gc import freeze`."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "gc" and any(alias.name == "freeze" for alias in node.names)
    return ast.unparse(node) == "gc.freeze" if isinstance(node, ast.Attribute) else False


def _imports_by_owner(tree: ast.Module):
    """(import node, the module-level function it sits in, or None)."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, owner


def findings(source: str, src: bool = True, module: str = "") -> list[str]:
    """Findings of the scan; `src` adds the rules for src/qcf modules, of
    which `module` names the one scanned."""
    tree = ast.parse(source)
    read = _read_names(tree)
    lines = source.splitlines()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            out += [f"unused import {name}" for name in bound if name not in read]
        if src:
            out += [f"imports {top}" for top in _top_package(node)
                    if top in ("dataclasses", "click")]
    for node, owner in _imports_by_owner(tree) if src else ():
        if (module, owner) != _CONCURRENCY_EXEMPT:
            out += [f"imports {top}" for top in _top_package(node) if top in _CONCURRENCY]
    for node in tree.body if src else ():
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and node.name not in read):
            out.append(f"unreferenced private {node.name}")
    for node in ast.walk(tree) if src else ():
        if isinstance(node, ast.Attribute) and node.attr in _AXIS_SHUFFLES:
            out.append(f"calls np.{node.attr}")
    for top, owner in _owners(tree) if src and module in _EXACT_LAYER else ():
        if owner not in _OBJECT_DTYPE_EXEMPT:
            where = ".".join(name for name in owner if name)
            out += [f"object dtype in {where}" for node in ast.walk(top)
                    if _names_object_dtype(node)]
    for top, owner in _owners(tree) if src else ():
        where = ".".join(name for name in owner if name) or "module scope"
        out += [f"freezes the heap in {where}" for node in ast.walk(top)
                if _names_gc_freeze(node) and (module, owner) != _FREEZER]
    for node, (cls, name) in _owners(tree) if src else ():
        if name == "__new__" and (node.args.vararg or node.args.kwarg):
            out.append(f"{cls}.__new__ takes *args or **kwargs")
    for top, owner in _owners(tree) if src and module == "cli" else ():
        where = ".".join(name for name in owner if name)
        for node in ast.walk(top) if owner != _ERROR_HANDLER else ():
            if _is_error_output(node) and not (
                    owner == (None, "verify") and ast.unparse(node) == _VERIFY_EXEMPT):
                out.append(f"error output in {where}: {ast.unparse(node)}")
        out += [f"calls np.errstate in {where}" for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "errstate"]
    return out


_QCF_DOTTED = re.compile(r"qcf(\.\w+)+")


def _is_super_attribute(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call) and (
        getattr(node.value.func, "id", None) == "super")


def _reads(tree: ast.AST, skip_super: bool = False) -> Counter:
    """How often each identifier is read under tree: a name as itself, an
    attribute as "." and its name; skip_super leaves out the attributes of
    super()."""
    return Counter(node.id if isinstance(node, ast.Name) else "." + node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                   and not (skip_super and _is_super_attribute(node)))


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class and
    each method of a module-level class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield top.name, top
        for node in top.body if isinstance(top, ast.ClassDef) else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{top.name}.{node.name}", node


def _exempt(node: ast.FunctionDef | ast.ClassDef) -> bool:
    """A dunder or a `_make` override."""
    return node.name.startswith("__") and node.name.endswith("__") or node.name == "_make"


class _Types:
    """What the receiver scan knows of src/qcf: each top-level class's bases,
    methods and annotated fields, and each module-level function's return
    annotation."""

    def __init__(self, trees):
        self.bases, self.methods, self.fields, self.returns = {}, {}, {}, {}
        for tree in trees:
            for top in tree.body:
                if isinstance(top, ast.ClassDef):
                    self.bases[top.name] = [getattr(base, "id", None) for base in top.bases]
                    self.methods[top.name] = {
                        node.name for node in top.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
                    self.fields[top.name] = {
                        node.target.id: node.annotation for node in top.body
                        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
                elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.returns[top.name] = top.returns

    def mro(self, cls: str | None) -> list[str]:
        """cls and its src/qcf bases, depth first."""
        if cls not in self.methods:
            return []
        return [cls] + [c for base in self.bases[cls] for c in self.mro(base)]

    def definer(self, cls: str | None, name: str) -> str | None:
        """The class of cls's mro that defines the method name."""
        return next((c for c in self.mro(cls) if name in self.methods[c]), None)

    def named(self, note: ast.AST | None, items: bool = False) -> str | None:
        """The class an annotation names (`C`, `mod.C`, `C | None`), or with
        items, the class of its items (`tuple[C, ...]`, `list[C]`)."""
        if isinstance(note, ast.BinOp):
            return self.named(note.left, items) or self.named(note.right, items)
        if items:
            if not isinstance(note, ast.Subscript):
                return None
            note = note.slice.elts[0] if isinstance(note.slice, ast.Tuple) else note.slice
        name = getattr(note, "id", None) or getattr(note, "attr", None)
        return name if name in self.methods else None

    def of(self, expr: ast.AST, env: dict, items: bool = False) -> str | None:
        """The class of expr's value (of its items, with items), or None."""
        if isinstance(expr, ast.Name):
            return env.get((expr.id, items))
        if isinstance(expr, ast.IfExp):
            return self.of(expr.body, env, items) or self.of(expr.orelse, env, items)
        if isinstance(expr, ast.Call):
            name = getattr(expr.func, "id", None) or getattr(expr.func, "attr", None)
            if name in self.methods:
                return None if items else name
            return self.named(self.returns.get(name), items)
        if isinstance(expr, ast.Attribute):
            for cls in self.mro(self.of(expr.value, env)):
                if expr.attr in self.fields[cls]:
                    return self.named(self.fields[cls][expr.attr], items)
        return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _split_scope(scope: ast.AST) -> tuple[list, list]:
    """The nodes of scope's own body, and the scopes nested in it directly."""
    own, nested, todo = [], [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            nested.append(node)
        else:
            own.append(node)
            todo += ast.iter_child_nodes(node)
    return own, nested


def _receiver_reads(scope: ast.AST, types: _Types, cls: str | None = None,
                    env: dict | None = None) -> list:
    """((class, method), node) for each read `x.method` under scope whose
    receiver x resolves to a src/qcf class, with the class of x's mro that
    defines the method. x resolves as `self` in a method of cls, an annotated
    parameter, a call of a class or of a module-level function with an
    annotated return, an annotated field, or a name that `=` or `for` binds
    to one of these; a nested scope sees the names of the scopes around it."""
    env = dict(env or {})
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
        for i, arg in enumerate(args):
            env[(arg.arg, False)] = cls if i == 0 and cls else types.named(arg.annotation)
            env[(arg.arg, True)] = types.named(arg.annotation, items=True)
    own, nested = _split_scope(scope)
    for _ in range(2):  # a name bound from one that is bound further down
        for node in own:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                for items in (False, True):
                    env[(node.targets[0].id, items)] = types.of(node.value, env, items)
            elif (isinstance(node, (ast.For, ast.comprehension))
                  and isinstance(node.target, ast.Name)):
                env[(node.target.id, False)] = types.of(node.iter, env, items=True)
    out = []
    for node in own:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            definer = types.definer(types.of(node.value, env), node.attr)
            if definer:
                out.append(((definer, node.attr), node))
    for inner in nested:
        # a class's own methods take it as self; a def nested in a method does not
        owner = inner.name if isinstance(inner, ast.ClassDef) else (
            scope.name if isinstance(scope, ast.ClassDef) else None)
        out += _receiver_reads(inner, types, owner, env)
    return out


def uncalled(src: dict[str, str], bench: list[str]) -> list[str]:
    """module.qualified names of the definitions in src (module name to
    source) that have no caller in src outside themselves or in bench (the
    perfbench sources). A method whose name another src class defines too
    has a caller only where a read's receiver resolves to its class
    (_receiver_reads), or where a bench dotted string names it as
    `Class.method`."""
    trees = {module: ast.parse(source) for module, source in src.items()}
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    types = _Types(trees.values())
    resolved = [pair for tree in trees.values() for pair in _receiver_reads(tree, types)]
    shared = {name for name, count in Counter(
        name for methods in types.methods.values() for name in methods).items() if count > 1}
    bench_names, bench_dotted = set(), set()
    for tree in map(ast.parse, bench):
        bench_names |= {name.lstrip(".") for name in _reads(tree)}
        dotted = {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _QCF_DOTTED.fullmatch(node.value)}
        bench_names |= {name.rpartition(".")[2] for name in dotted}
        bench_dotted |= {".".join(name.split(".")[-2:]) for name in dotted}
    out = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            if _exempt(node):
                continue
            if "." in qualified and node.name in shared:
                inside = {id(n) for n in ast.walk(node)}
                if qualified not in bench_dotted and all(
                        id(n) in inside for key, n in resolved
                        if key == tuple(qualified.split("."))):
                    out.append(f"{module}.{qualified}")
                continue
            if node.name in bench_names:
                continue
            # a method is reached only as an attribute, a module-level name also by name
            keys = ["." + node.name] if "." in qualified else [node.name, "." + node.name]
            own = _reads(node, skip_super=True)
            if all(read[key] <= own[key] for key in keys):
                out.append(f"{module}.{qualified}")
    return out


def _package() -> tuple[dict[str, str], list[str]]:
    """src/qcf's sources by module name, and perfbench's sources."""
    return ({path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))},
            [path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))])


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import_or_private_helper(path):
    assert findings(path.read_text(encoding="utf-8"), module=path.stem) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_test_module_has_no_unused_import(path):
    assert findings(path.read_text(encoding="utf-8"), src=False) == []


def test_scan_flags_each_kind():
    source = """
import os
import sys  # noqa: F401
import numpy as np
from fractions import Fraction
from concurrent.futures import ThreadPoolExecutor

def _zeros_obj(shape):
    return np.empty(shape, dtype=object)

def _used():
    import concurrent.futures
    from dataclasses import replace
    from click import echo
    return np.zeros(3), concurrent.futures.wait, replace, echo

class _Gone:
    import dataclasses

def public():
    import threading
    return _used(), ThreadPoolExecutor, threading

class Pool:
    from multiprocessing import pool

    def run(self):
        return pool

def __getattr__(name):
    from concurrent.futures import Future
    return Future

def contract(a, b):
    ab = np.tensordot(a, b, axes=1)
    return np.moveaxis(ab, 0, 1)
"""
    scan = findings(source)
    assert scan == [
        "unused import os", "unused import Fraction",
        "imports dataclasses", "imports click", "unused import dataclasses",
        "imports dataclasses", "imports concurrent", "imports concurrent", "imports threading",
        "imports multiprocessing", "imports concurrent",
        "unreferenced private _zeros_obj", "unreferenced private _Gone",
        "calls np.tensordot", "calls np.moveaxis"]
    # cli.__getattr__ is the one exception, in cli only
    assert findings(source, module="cli") == scan[:10] + scan[11:]
    assert findings(source, src=False) == [
        "unused import os", "unused import Fraction", "unused import dataclasses"]


def test_scan_flags_object_dtypes_in_the_curvature_layer():
    source = """
class _Exact:
    dtype = np.dtype(object)

    def fractions(self):
        return np.empty(3, dtype=object)

    def widened(self):
        return np.zeros(3, dtype=object)

def zeros(shape):
    return np.full(shape, Fraction(0), dtype=np.int64 if shape else object)

def identity(n):
    eye = np.empty((n, n), dtype=object)
    return eye.astype(np.dtype(object))

KINDS = {"exact": np.dtype(object), "held": _Exact}
"""
    scan = ["object dtype in _Exact.widened", "object dtype in identity",
            "object dtype in identity", "object dtype in KINDS"]
    for module in ("tensor_core", "homogeneous", "catalog", "verify"):
        assert findings(source, module=module) == scan
    assert findings(source, module="spectral") == []
    # a Fraction array built in homogeneous.su2 fails the scan
    path = SRC / "homogeneous.py"
    text = path.read_text(encoding="utf-8")
    body = "    return _su2_frame(3, exact)\n"
    assert text.count(body) == 1
    mutant = text.replace(body, "    c = np.empty((3, 3, 3), dtype=object)\n" + body)
    assert findings(mutant, module="homogeneous") == ["object dtype in su2"]


def test_scan_keeps_cli_errors_in_the_entry_point_handler():
    source = """
class _Main:
    def main(self, args=None):
        with np.errstate(all="ignore"):
            print("error: x", file=sys.stderr)
            sys.exit(2)

main = _Main()

def verify(report):
    print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    return 1

def grad():
    with np.errstate(all="ignore"):
        print("warning", file=sys.stderr)
        sys.stderr.write("warning")
        click.echo("warning", err=True)
    print("stdout", file=sys.stdout)
    sys.exit(3)
"""
    assert findings(source, module="cli") == [
        "calls np.errstate in _Main.main",
        "error output in grad: sys.exit(3)",
        "error output in grad: print('warning', file=sys.stderr)",
        "error output in grad: sys.stderr.write('warning')",
        "error output in grad: click.echo('warning', err=True)",
        "calls np.errstate in grad"]
    assert findings(source, module="spectral") == []
    # verify may print only its timing line; it returns its exit code
    assert findings(source.replace("return 1", "sys.exit(1)"), module="cli")[1] == (
        "error output in verify: sys.exit(1)")
    # a command that prints its own stderr line fails the scan
    path = SRC / "cli.py"
    text = path.read_text(encoding="utf-8")
    doc = '    """Strict-stability tau interval of a catalog model, or a point verdict."""\n'
    assert text.count(doc) == 1
    for line, shown in (('print("error: refused", file=sys.stderr)',
                         "print('error: refused', file=sys.stderr)"),
                        ('sys.stderr.write("error: refused")',
                         "sys.stderr.write('error: refused')"),
                        ('click.echo("error: refused", err=True)',
                         "click.echo('error: refused', err=True)")):
        mutant = text.replace(doc, doc + f"    {line}\n")
        assert findings(mutant, module="cli") == [f"error output in intervals: {shown}"]


def test_scan_keeps_record_constructors_positional():
    source = """
class Checked(_Fields):
    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)

class Named(_Fields):
    def __new__(cls, variant, witness=None):
        return tuple.__new__(cls, (variant, witness))

class Rest(_Fields):
    def __new__(cls, variant, **extra):
        return tuple.__new__(cls, (variant,))
"""
    assert findings(source) == ["Checked.__new__ takes *args or **kwargs",
                                "Rest.__new__ takes *args or **kwargs"]
    assert findings(source, src=False) == []
    # StabilityVerdict forwarding its arguments fails the scan
    path = SRC / "stability.py"
    text = path.read_text(encoding="utf-8")
    sig = "    def __new__(cls, variant, witness=None, notes=(), provenance=()):\n"
    assert text.count(sig) == 1
    mutant = text.replace(sig, "    def __new__(cls, *args, **kwargs):\n")
    assert findings(mutant, module="stability") == [
        "StabilityVerdict.__new__ takes *args or **kwargs"]


def test_every_src_function_class_and_method_has_a_caller():
    assert uncalled(*_package()) == []


def test_caller_scan_rules():
    source = """
__all__ = ["listed"]

def listed():
    return 1

def recursive(n):
    return recursive(n - 1) if n else 0

def used():
    return Record(1)._replace(x=2).total, FLOAT

class Record(NamedTuple):
    x: int

    @property
    def total(self):
        return self.x

    def unread(self):
        return self.unread

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __repr__(self):
        return "Record"

class Parser(argparse.ArgumentParser):
    def error(self, message):
        return super().error(message)

PARSER = Parser()

def intervals():
    pass

@main.command()
def curve():
    pass

COMMANDS = {"intervals": intervals}

def traced():
    pass

def run():
    unread = used()  # a local name does not reach the method Record.unread
    return unread
"""
    bench = 'SITES = ["qcf.mod.traced", "not qcf.mod.listed"]\nmod.run()\n'
    # a command is called from the command table, and a decorator exempts none
    assert uncalled({"mod": source}, [bench]) == ["mod.listed", "mod.recursive",
                                                 "mod.Record.unread", "mod.curve"]
    assert uncalled({"mod": source}, []) == ["mod.listed", "mod.recursive",
                                            "mod.Record.unread", "mod.curve", "mod.traced",
                                            "mod.run"]


def test_caller_scan_flags_what_only_tests_call():
    """A new public function that nothing calls fails the scan, and so does
    a method that only tests call (the verdict's former `passes`). The
    tracer's dotted names keep exact_inv and exact_det, which no src module
    calls."""
    src, bench = _package()
    text = src["stability"]
    mutant = dict(src, stability=text + "\n\ndef tt_gap_check(model, tau):\n"
                                        "    return _tt_gap(model, _exact_tau(tau))\n")
    assert uncalled(mutant, bench) == ["stability.tt_gap_check"]
    anchor = "    def to_json(self) -> dict:\n        return {\n            \"verdict\""
    assert text.count(anchor) == 1
    passes = ("    @property\n    def passes(self) -> bool:\n        return self.variant in "
              "(\"StrictlyStable\", \"StableBoundOnly\")\n\n")
    mutant = dict(src, stability=text.replace(anchor, passes + anchor))
    assert uncalled(mutant, bench) == ["stability._VerdictFields.passes"]
    assert uncalled(src, []) == ["_exact.exact_inv", "_exact.exact_det"]


def test_caller_scan_resolves_shared_method_names_by_receiver():
    source = """
class Item(NamedTuple):
    def to_json(self):
        return {}

class Report(NamedTuple):
    items: tuple[Item, ...]

    def to_json(self):
        return [item.to_json() for item in self.items]

class Unread(NamedTuple):
    def to_json(self):
        return self.to_json()

class Traced(NamedTuple):
    def to_json(self):
        return {}

class Base(NamedTuple):
    def to_json(self):
        return {}

class Derived(Base):
    pass

def report(model) -> Report:
    return Report(())

def run(model, derived: Derived | None, anything):
    anything.to_json()  # a receiver that does not resolve reaches no class
    chosen = report(model) if model else None
    return chosen.to_json(), derived.to_json(), (Unread, Traced)
"""
    bench = 'SITES = ["qcf.mod.Traced.to_json"]\nmod.run()\n'
    # Item through Report's field, Report through report's return annotation,
    # Base through Derived's parameter annotation; Unread only reads itself
    assert uncalled({"mod": source}, [bench]) == ["mod.Unread.to_json"]
    assert uncalled({"mod": source}, ['mod.run()\n']) == ["mod.Unread.to_json",
                                                           "mod.Traced.to_json"]


def test_caller_scan_flags_a_method_that_only_shares_a_called_name():
    """An uncalled `ExceptionalTau.display_name` fails the scan, though cli
    and catalog read `ModelSpace.display_name`, and so does a report's
    `to_json` whose one read is gone, though the other reports' are read."""
    src, bench = _package()
    text = src["stability"]
    anchor = "    def to_json(self) -> dict:\n        return {\"tau\": format_ratio(self.tau)"
    assert text.count(anchor) == 1
    method = "    @property\n    def display_name(self) -> str:\n        return str(self.tau)\n\n"
    mutant = dict(src, stability=text.replace(anchor, method + anchor))
    assert uncalled(mutant, bench) == ["stability.ExceptionalTau.display_name"]
    read = '        obj["bach"] = bach.to_json()\n'
    assert src["cli"].count(read) == 1
    mutant = dict(src, cli=src["cli"].replace(read, '        obj["bach"] = bach._asdict()\n'))
    assert uncalled(mutant, bench) == ["stability.BachVerdict.to_json"]


def test_scan_keeps_gc_freeze_in_the_entry_point():
    source = """
import gc
from gc import freeze

class _Main:
    def main(self, args=None):
        gc.freeze()

    def __call__(self):
        try:
            self.main()
        finally:
            gc.freeze()

def warm():
    def inner():
        return gc.freeze
    return inner, freeze

main = _Main()
"""
    flagged = ["freezes the heap in module scope", "freezes the heap in _Main.main",
               "freezes the heap in warm"]
    assert findings(source, module="cli") == flagged
    assert findings(source, module="stability") == flagged[:2] + [
        "freezes the heap in _Main.__call__", "freezes the heap in warm"]
    # the handler that in-process callers run may not freeze
    path = SRC / "cli.py"
    text = path.read_text(encoding="utf-8")
    call = "                code = _run(prog_name or self.name, argv) or 0\n"
    assert text.count(call) == 1
    mutant = text.replace(call, call + "                gc.freeze()\n")
    assert findings(mutant, module="cli") == ["freezes the heap in _Main.main"]
