"""The library surface is what the command line, the demos, the benchmark
and the library itself use.

Every name a ``src/martonlab`` module exports through ``__all__`` must be
used somewhere outside ``tests/``: in a Python or shell file, other than
its own definition, its ``__all__`` entry and its re-export in the
package ``__init__``.  So must every public method and property of an
exported class.  Code that only tests call belongs in ``tests/``.

numpy is the library's only runtime dependency: scipy serves the tests
alone.
"""

import importlib
import inspect
import io
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

# checked by the acceptance suite as one of the paper's claims
EXCEPTIONS = {"hayashi_nagaoka_check"}


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


@pytest.fixture(scope="module")
def used() -> set:
    out = set()
    for path in _source_files():
        out.update(_uses(path))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used_outside_tests(module, used):
    exported = importlib.import_module(f"martonlab.{module}").__all__
    unused = sorted(set(exported) - used - EXCEPTIONS)
    assert not unused, f"martonlab.{module} exports names only tests use: {unused}"


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
