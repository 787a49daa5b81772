"""The public surface: every exported name resolves, and so does every
callable the benchmark tracer wraps, so a deletion cannot silently break
the traced benchmark run. The package holds no bare assert, so every
check still runs under python -O, and the model layers check d once per
model, not once per value."""

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


def _bench_module(name):
    """benchmarks/<name>.py, loaded by path: the directory is no package."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / (name + ".py")
    spec = importlib.util.spec_from_file_location("motivix_bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_resolve():
    tracing = _bench_module("tracing")
    pairs = [pair for targets in tracing.SPANS.values() for pair in targets]
    assert pairs
    for mod, attr in pairs:
        assert callable(_resolve(importlib.import_module("motivix." + mod), attr)), (mod, attr)


def test_benchmark_workloads_run_untraced_and_traced(tmp_path):
    """Every op of both workloads, at their small size, passes its own
    check untraced and then with the tracer installed, with the same
    digest; uninstalling restores every wrapped callable."""
    workloads = _bench_module("workloads")
    tracing = _bench_module("tracing")
    modules = {"motivix": motivix}
    for name in SUBMODULES:
        modules["motivix." + name] = importlib.import_module("motivix." + name)
    pkg = workloads.Package(modules)
    resultant = modules["motivix.polyring"].fp_resultant
    for workload, make in workloads.WORKLOADS.items():
        _, ops = make(pkg, 1, str(tmp_path / workload), small=True)
        untraced = [op.check(op.run())[0] for op in ops]
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            traced = []
            for op_id, op in enumerate(ops):
                tracer.begin_op(op_id)
                output = op.run()
                tracer.end_op()
                traced.append(op.check(output)[0])
        finally:
            tracer.uninstall()
        assert traced == untraced, workload
        calls = tracer.layer_totals(range(len(ops)))
        assert calls["decomp.decide"]["calls"] >= len(ops), workload
    assert calls["fermat.degree"]["calls"] == 3
    assert modules["motivix.polyring"].fp_resultant is resultant
    assert modules["motivix.fermat"].fp_resultant is resultant


def test_no_bare_assert_in_the_package():
    src = Path(motivix.__file__).resolve().parent
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# the constructors that re-check d by trial division to sqrt(d)
VALIDATING = {"QuadInt": ("check_d",), "EndoQ": ("from_rows",)}


def validating_calls(tree):
    """(enclosing def, callee) for every QuadInt(...) call and every call
    of a VALIDATING constructor in the module tree."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, where + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Name) and f.id == "QuadInt":
                    found.append((".".join(where), "QuadInt"))
                elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                      and f.attr in VALIDATING.get(f.value.id, ())):
                    found.append((".".join(where), f.value.id + "." + f.attr))
            visit(child, where)

    visit(tree, ())
    return found


def test_model_layers_check_d_once():
    src = Path(motivix.__file__).resolve().parent
    found = sorted(
        (name,) + call
        for name in ("cmlat", "corr", "decomp")
        for call in validating_calls(ast.parse((src / (name + ".py")).read_text()))
    )
    assert found == [
        ("cmlat", "EndoQ.from_rows", "QuadInt.check_d"),
        ("cmlat", "build_model", "QuadInt.check_d"),
    ]
