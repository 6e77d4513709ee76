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
module included.  Code that only tests call belongs in ``tests/``.

numpy is the library's only runtime dependency: scipy serves the tests
alone.
"""

import ast
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


def _public_methods(cls) -> set:
    """Public methods and properties a martonlab class defines or inherits
    from a martonlab base; dataclass fields are data, not methods."""
    kinds = (property, classmethod, staticmethod)
    return {name for klass in cls.__mro__ if klass.__module__.startswith("martonlab")
            for name, value in vars(klass).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_is_used_outside_tests(module, used):
    mod = importlib.import_module(f"martonlab.{module}")
    unused = sorted(f"{name}.{attr}" for name in mod.__all__
                    if inspect.isclass(cls := getattr(mod, name))
                    for attr in _public_methods(cls) - used)
    assert not unused, f"martonlab.{module} classes have methods only tests use: {unused}"


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
