"""The public surface: every exported name resolves, and so does every
callable the benchmark tracer wraps, so a deletion cannot silently break
the traced benchmark run. The package holds no bare assert, so every
check still runs under python -O."""

import ast
import importlib
import importlib.util
from pathlib import Path

import motivix

SUBMODULES = ("cli", "cmlat", "corr", "decomp", "errors", "exact",
              "fermat", "motcalc", "polyring")


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_all_names_resolve():
    missing = [n for n in motivix.__all__ if not hasattr(motivix, n)]
    for name in SUBMODULES:
        mod = importlib.import_module("motivix." + name)
        missing += [name + "." + n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_traced_spans_resolve():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("motivix_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [pair for targets in tracing.SPANS.values() for pair in targets]
    assert pairs
    for mod, attr in pairs:
        assert callable(_resolve(importlib.import_module("motivix." + mod), attr)), (mod, attr)


def test_no_bare_assert_in_the_package():
    src = Path(motivix.__file__).resolve().parent
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
