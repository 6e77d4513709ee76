"""The library surface is what the command line, the demos, the benchmark
and the library itself use.

Every name a ``src/martonlab`` module exports through ``__all__`` must be
used somewhere outside ``tests/``: in a Python or shell file other than
its own module and the package ``__init__``.  A function or constant
counts only where it is reached through its own module, so that a method
or a str method of the same name does not stand in for it.  A class may
be used by name anywhere, its own module too, since callers hold its
instances without naming it.  Every public method and property of an
exported class must be used as well, in any of these files, its own
module included, on a value of that class: a method counts where its
receiver's class can be read from the source (see ``_method_credits``),
so another class's method of the same name does not stand in for it.
Code that only tests call belongs in ``tests/``.

numpy is the library's only runtime dependency: scipy serves the tests
alone.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "martonlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACER = ROOT / "perfbench" / "tracer.py"


def _source_files() -> list:
    """The Python and shell files of the library, the demos and the benchmark."""
    paths = [p for top in ("src", "demos", "perfbench") for p in (ROOT / top).rglob("*")]
    paths += list(ROOT.glob("*"))
    return sorted(p for p in paths if p.suffix in (".py", ".sh") and p.is_file()
                  and p != PACKAGE / "__init__.py")


def _uses(path: Path) -> list:
    """Identifiers a file uses; definitions, strings and comments do not count."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".sh":
        return re.findall(r"\w+", text)
    skip = (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT)
    toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.type not in skip]
    names = []
    for i, tok in enumerate(toks):
        if tok.type != tokenize.NAME:
            continue
        prev = toks[i - 1].string if i else ""
        nxt = toks[i + 1].string if i + 1 < len(toks) else ""
        defines = prev in ("def", "class") or (tok.start[1] == 0 and nxt in ("=", ":"))
        if not defines:
            names.append(tok.string)
    return names


def _reached(path: Path) -> set:
    """(qualifier, name) pairs a Python file reaches: ``from martonlab.<module>
    import <name>`` and ``from .<module> import <name>`` give (module, name),
    ``from martonlab import <name>`` gives ("martonlab", name), an attribute
    ``<a>.<b>.<name>`` gives (b, name), and in the tracer ``fn(<module>,
    "<name>", ...)`` gives (module, name)."""
    if path.suffix != ".py":
        return set()
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or "martonlab" in str(node.module)):
            module = (node.module or "martonlab").split(".")[-1]
            pairs.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            if owner:
                pairs.add((owner, node.attr))
        elif (path == TRACER and isinstance(node, ast.Call) and len(node.args) > 1
              and getattr(node.func, "id", None) == "fn"
              and isinstance(node.args[0], ast.Name) and isinstance(node.args[1], ast.Constant)):
            pairs.add((node.args[0].id, node.args[1].value))
    return pairs


@pytest.fixture(scope="module")
def uses() -> dict:
    return {path: set(_uses(path)) for path in _source_files()}


@pytest.fixture(scope="module")
def reached() -> dict:
    """Each source file's (module, name) pairs, with the package's re-exports
    credited to the module they come from."""
    owner = {name: module for module, name in _reached(PACKAGE / "__init__.py")}
    return {path: {(owner.get(name, "?") if module == "martonlab" else module, name)
                   for module, name in _reached(path)} for path in _source_files()}


@pytest.fixture(scope="module")
def used(uses) -> set:
    return set().union(*uses.values())


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used_outside_tests(module, used, reached):
    mod = importlib.import_module(f"martonlab.{module}")
    own = PACKAGE / f"{module}.py"
    reached_elsewhere = set().union(*(pairs for path, pairs in reached.items() if path != own))
    unused = sorted(name for name in mod.__all__
                    if not (name in used if inspect.isclass(getattr(mod, name))
                            else (module, name) in reached_elsewhere))
    assert not unused, f"martonlab.{module} exports names only tests use: {unused}"


def test_functions_are_reached_through_their_module(tmp_path):
    # a same-named method, a str method or a bare name reach no module's
    # function; an import from the module, the module's attribute and the
    # package re-export do
    caller = tmp_path / "caller.py"
    caller.write_text("from martonlab.coding import decode_rows\n"
                      "from .channels import bob_ensemble as ensemble\n"
                      "from martonlab import covering_bound\n"
                      "mem.matches(words)\n'text'.encode()\nencode\nexperiments.Scheme.shared\n",
                      encoding="utf-8")
    assert _reached(caller) == {("coding", "decode_rows"), ("channels", "bob_ensemble"),
                                ("martonlab", "covering_bound"), ("mem", "matches"),
                                ("experiments", "Scheme"), ("Scheme", "shared")}
    assert ("coding", "encode") in _reached(TRACER)


def _library_classes() -> dict:
    """Every class a martonlab module defines, private ones included, by name."""
    return {name: value for module in MODULES
            for name, value in vars(importlib.import_module(f"martonlab.{module}")).items()
            if inspect.isclass(value) and value.__module__ == f"martonlab.{module}"}


CLASSES = _library_classes()


def _named(annotation) -> set:
    """The martonlab classes an annotation names: a class, a string, an
    ast node, or a container of them such as ``tuple[EventStats, ...]``."""
    if isinstance(annotation, ast.AST):
        annotation = ast.unparse(annotation)
    return set(re.findall(r"\w+", str(annotation))) & CLASSES.keys()


def _returns(obj) -> set:
    """The classes a martonlab callable or property gives: a class itself,
    or the classes its return annotation names."""
    if inspect.isclass(obj):
        return {obj.__name__} & CLASSES.keys()
    fn = getattr(obj, "fget", None) or getattr(obj, "func", None) or getattr(obj, "__func__", obj)
    return _named(inspect.get_annotations(fn).get("return", "")) if callable(fn) else set()


def _attribute_classes(cls, attr: str) -> set:
    """The classes an attribute of a martonlab class holds, read from its
    field annotation or its property's return annotation."""
    for klass in cls.__mro__:
        if attr in vars(klass).get("__annotations__", {}):
            return _named(vars(klass)["__annotations__"][attr])
        if attr in vars(klass):
            value = vars(klass)[attr]
            return _returns(value) if isinstance(value, (property, functools.cached_property)) \
                else set()
    return set()


class _Receivers:
    """The classes of the values in one Python file, as far as the source
    tells them, flow-insensitively: a name takes the classes of everything
    bound to it in its function or the module (parameter annotations,
    assigned values, loop targets, whose iterables count as their
    elements), ``self`` is the enclosing class, ``self.<attr>`` takes what
    the class's methods assign to it, and a call gives the classes its
    callee's return annotation names.  Names and attributes that lead to
    martonlab modules, classes and functions resolve through the imports."""

    def __init__(self, tree: ast.Module, module: str | None = None):
        # local name -> martonlab module, class or function; a library
        # module's own file starts from the module's globals
        self.objects = {} if module is None else {
            name: value for name, value in vars(importlib.import_module(f"martonlab.{module}"))
            .items() if inspect.ismodule(value) or inspect.isclass(value) or callable(value)}
        self.defs = {}  # name -> FunctionDef of the file
        self.bindings = {}  # (scope, name) -> [(kind, node, scope)]
        self.fields = {}  # (class name, attr) -> [(kind, node, scope)]
        self.scope_of = {}  # node -> its innermost function or the module
        self.outer = {}  # scope -> enclosing scope
        self._walk(tree, tree, None)

    def _bind(self, cls, target, kind, node, scope):
        if isinstance(target, ast.Name):
            self.bindings.setdefault((scope, target.id), []).append((kind, node, scope))
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                and target.value.id == "self" and cls is not None:
            self.fields.setdefault((cls, target.attr), []).append((kind, node, scope))

    def _walk(self, node, scope, cls, method=False):
        """Record what ``node`` binds; ``cls`` is the class whose methods
        enclose it, and ``method`` whether it sits right in the class body."""
        self.scope_of[node] = scope
        if isinstance(node, ast.ImportFrom) and (node.level or "martonlab" in str(node.module)):
            module = importlib.import_module(
                f"martonlab.{node.module}" if node.level and node.module else
                node.module or "martonlab")
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if obj is None:
                    obj = importlib.import_module(f"{module.__name__}.{alias.name}")
                self.objects[alias.asname or alias.name] = obj
        elif isinstance(node, ast.FunctionDef):
            self.defs[node.name] = node
            self.outer[node] = scope
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            for i, arg in enumerate(args):
                if i == 0 and method:
                    self._bind(None, ast.Name(arg.arg), "self", cls, node)
                elif arg.annotation is not None:
                    self._bind(None, ast.Name(arg.arg), "ann", arg.annotation, node)
            for child in node.body:
                self._walk(child, node, cls)
            return
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                self._walk(child, scope, node.name, True)
            return
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind(cls, target, "value", node.value, scope)
        elif isinstance(node, (ast.For, ast.comprehension)):
            self._bind(cls, node.target, "value", node.iter, scope)
        for child in ast.iter_child_nodes(node):
            self._walk(child, scope, cls)

    def _object(self, node):
        """The martonlab module, class or function an expression names, or None."""
        if isinstance(node, ast.Name):
            return self.objects.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self._object(node.value)
            if inspect.ismodule(owner) or inspect.isclass(owner):
                return inspect.getattr_static(owner, node.attr, None)
        return None

    def _of_bindings(self, entries, depth) -> set:
        out = set()
        for kind, node, scope in entries:
            if kind == "self":
                out.add(node)
            elif kind == "ann":
                out |= _named(node)
            else:
                out |= self.classes(node, depth + 1, scope)
        return out

    def classes(self, node, depth=0, scope=None) -> set:
        """The classes the value of ``node`` may have; the names of the
        file's own classes are kept, for their ``self.<attr>`` fields."""
        if depth > 8:
            return set()
        scope = self.scope_of.get(node, scope)
        obj = self._object(node)
        if obj is not None:
            return {obj.__name__} if inspect.isclass(obj) else set()
        if isinstance(node, ast.Name):
            while scope is not None:
                if (scope, node.id) in self.bindings:
                    return self._of_bindings(self.bindings[scope, node.id], depth)
                scope = self.outer.get(scope)
            return set()
        if isinstance(node, ast.Attribute):
            out = set()
            for name in self.classes(node.value, depth + 1, scope):
                out |= self._of_bindings(self.fields.get((name, node.attr), []), depth)
                if name in CLASSES:
                    out |= _attribute_classes(CLASSES[name], node.attr)
            return out
        if isinstance(node, ast.Call):
            callee = self._object(node.func)
            if callee is not None:
                return _returns(callee)
            if isinstance(node.func, ast.Name) and node.func.id in self.defs:
                return _named(self.defs[node.func.id].returns or "")
            if isinstance(node.func, ast.Attribute):
                return set().union(*(_returns(inspect.getattr_static(CLASSES[name], node.func.attr,
                                                                     None))
                                     for name in self.classes(node.func.value, depth + 1, scope)
                                     if name in CLASSES))
            return set()
        return set()


def _definer(cls, attr: str):
    return next(klass for klass in cls.__mro__ if attr in vars(klass))


def _method_credits(path: Path) -> set:
    """(class, method) pairs a Python file uses: each ``<receiver>.<method>``
    credits the classes ``_Receivers`` reads for its receiver.  Where it
    reads none, the use credits the classes that define a method of that
    name, if they are one, or else those of them that the file names or
    defines."""
    if path.suffix != ".py":
        return set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    receivers = _Receivers(tree, path.stem if path.parent == PACKAGE else None)
    methods = {}
    for cls in CLASSES.values():
        for attr in _public_methods(cls):
            methods.setdefault(attr, set()).add(_definer(cls, attr))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    names |= set(receivers.objects)
    credits = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or node.attr not in methods:
            continue
        owners = receivers.classes(node.value) & CLASSES.keys()
        if not owners:
            definers = methods[node.attr]
            owners = {d.__name__ for d in definers} if len(definers) == 1 else \
                {d.__name__ for d in definers if d.__name__ in names}
        credits.update((owner, node.attr) for owner in owners)
    return credits


def _credited(cls, attr: str, credits: set) -> bool:
    """A use on a value of class C may run ``cls.attr`` when cls is C or a
    subclass of it, or when C's ``attr`` is the same definition."""
    return any(a == attr and (issubclass(cls, CLASSES[c])
                              or _definer(CLASSES[c], attr) is _definer(cls, attr))
               for c, a in credits if hasattr(CLASSES[c], attr))


def _public_methods(cls) -> set:
    """Public methods and properties a martonlab class defines or inherits
    from a martonlab base; dataclass fields are data, not methods."""
    kinds = (property, classmethod, staticmethod)
    return {name for klass in cls.__mro__ if klass.__module__.startswith("martonlab")
            for name, value in vars(klass).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))}


@pytest.fixture(scope="module")
def credits() -> set:
    return set().union(*map(_method_credits, _source_files()))


def _unused_methods(classes, credits: set, used: set) -> list:
    return sorted(f"{cls.__name__}.{attr}" for cls in classes for attr in _public_methods(cls)
                  if not (attr in used and _credited(cls, attr, credits)))


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_is_used_outside_tests(module, used, credits):
    mod = importlib.import_module(f"martonlab.{module}")
    classes = [cls for name in mod.__all__ if inspect.isclass(cls := getattr(mod, name))]
    unused = _unused_methods(classes, credits, used)
    assert not unused, f"martonlab.{module} classes have methods only tests use: {unused}"


def test_methods_are_matched_by_owner(tmp_path, credits, used):
    # a use credits the class its receiver holds, read from a return or a
    # parameter annotation, not every class defining the name
    caller = tmp_path / "caller.py"
    caller.write_text("from martonlab.analysis import marton_region\n"
                      "from martonlab.coding import RateParams\n"
                      "region = marton_region(1.0, 1.0, 0.5, 0.125, 0.05)\n"
                      "region.to_json()\n"
                      "def rows(params: RateParams):\n"
                      "    return params.n_rows\n", encoding="utf-8")
    assert _method_credits(caller) == {("RateRegion", "to_json"), ("RateParams", "n_rows")}
    # a class whose to_json only tests call is unused, though the sources
    # call other classes' to_json and n_rows
    mutant = type("Mutant", (), {"__module__": "martonlab.coding", "to_json": lambda self: {},
                                 "n_rows": property(lambda self: 0)})
    assert {"to_json", "n_rows"} <= used
    assert _unused_methods([mutant], credits, used) == ["Mutant.n_rows", "Mutant.to_json"]
    assert not _unused_methods([CLASSES["RateRegion"], CLASSES["Codebook"]], credits, used)


def test_scan_sees_the_callers():
    # the scan reaches the command line, the demos and the benchmark
    files = {p.relative_to(ROOT).as_posix() for p in _source_files()}
    assert {"src/martonlab/cli.py", "demos/07_cli_tour.sh", "perfbench/workloads.py"} <= files
    assert not any(f.startswith("tests/") for f in files)


def test_every_lru_cache_is_bounded():
    # in the source: every lru_cache names an integer maxsize, and no
    # functools.cache (an unbounded one) is used
    for path in PACKAGE.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"functools\.cache\b|@cache\b|import[^\n]*\bcache\b", text), \
            path.name
        for match in re.finditer(r"lru_cache\b(\(\s*maxsize\s*=\s*(\d[\d_]*)\b)?", text):
            assert match.group(2), f"{path.name}: unbounded {match.group(0)!r}"
    # at run time: every cache a module holds reports a finite maxsize
    caches = 0
    for module in MODULES:
        for name, value in vars(importlib.import_module(f"martonlab.{module}")).items():
            if hasattr(value, "cache_parameters"):
                caches += 1
                assert value.cache_parameters()["maxsize"] is not None, f"{module}.{name}"
    assert caches


def test_no_dataclass_compares_arrays_by_a_generated_eq():
    # a generated __eq__ compares the fields as tuples, and == on two
    # distinct arrays of more than one element raises: a dataclass with an
    # array field sets eq=False, or compares by content as the values of
    # prob._Digested do
    offenders = sorted(name for name, cls in CLASSES.items()
                       if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.eq
                       and any(f.compare and "ndarray" in str(f.type)
                               for f in dataclasses.fields(cls)))
    assert not offenders, f"generated __eq__ over array fields: {offenders}"
    assert {"DensityOperator", "LlrSpectrum", "Codebook", "DecodeResult", "JointPmf"} <= {
        name for name, cls in CLASSES.items()
        if dataclasses.is_dataclass(cls) and not cls.__dataclass_params__.eq}


def test_library_imports_no_scipy():
    sources = [p.name for p in PACKAGE.glob("*.py")
               if re.search(r"^\s*(import|from)\s+scipy\b", p.read_text(encoding="utf-8"), re.M)]
    assert not sources
    # a fresh interpreter, so modules the tests imported do not count
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, martonlab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("resample", [True, False])
def test_classical_simulate_imports_no_numpy_ma(resample, tmp_path):
    # plain np.unique and np.setdiff1d import numpy.ma for a masked-array
    # check, which takes about 10 ms in a fresh interpreter; the desk config
    # runs both the fresh-codebook and the fixed-codebook encoder
    data = ROOT / "tests" / "data"
    cfg = json.loads((data / "config_desk.json").read_text(encoding="utf-8"))
    cfg.update(channel=str(data / cfg["channel"]), design=str(data / cfg["design"]),
               resample_codebook=resample)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, martonlab.cli; "
         f"code = martonlab.cli.main(['simulate', '--config', {str(config)!r}, "
         f"'--out', {str(tmp_path / 'out')!r}]); "
         "print(code, 'numpy.ma' in sys.modules)"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-2:] == ["0", "False"]
