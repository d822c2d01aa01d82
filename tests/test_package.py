"""Package-wide source checks."""

import ast
import importlib.util
import inspect
import pathlib

import pytest

import radwalk

SOURCES = sorted(
    p for p in pathlib.Path(radwalk.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names each import binds, with its line; ``__future__`` binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # the package's __init__ imports names to export them, and is left out
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def module_private_names(tree: ast.Module) -> set[str]:
    """The private names a module binds at its top level: ``_x``, not ``__x__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_name_is_used():
    # a helper whose last caller is gone, or is only reached from the tests
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    unused = {
        f"{name}.{n}" for name, tree in trees.items() for n in module_private_names(tree)
        if n not in used
    }
    assert not unused, f"private names nothing in the package reads: {sorted(unused)}"


BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """``bench/<name>.py``, loaded under the name ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_tracer_still_finds_what_it_wraps():
    # a rename here would silently zero walk.export_ms or walk.stream_steps
    spans = bench_module("spans")  # the span tracer the benchmark wraps the package with
    for layer, cls_name, meth in spans.METHODS:
        cls = getattr(getattr(radwalk, layer), cls_name)
        assert inspect.isfunction(vars(cls).get(meth)), f"{layer}.{cls_name}.{meth}"
    for name in {*spans.TAGS, *spans.COUNTERS}:
        layer, fn = name.split(".")
        assert inspect.isfunction(getattr(getattr(radwalk, layer), fn, None)), name
    # the tracer reads simulate's visitor as its 4th positional argument
    assert list(inspect.signature(radwalk.walk.simulate).parameters)[3] == "visitor"


@pytest.mark.parametrize("workload", ["desk_exact", "mc_long"])
def test_pass_0_matches_the_bench_pins(workload, monkeypatch):
    # a changed output or report byte shows here, before the benchmark refuses it
    monkeypatch.syspath_prepend(str(BENCH))  # the harness imports its workloads by name
    run = bench_module("run")
    workloads = importlib.import_module("workloads")
    pins = workloads.load_pins()[workloads.WORKLOADS[workload].problem]
    assert run.pass0_digests(workload, workloads.PIN_SEED) == pins
