"""Package-wide source checks."""

import ast
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
