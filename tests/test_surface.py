"""The public surface: every exported name resolves, and so does every
callable the benchmark tracer wraps, so a deletion cannot silently break
the traced benchmark run."""

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
