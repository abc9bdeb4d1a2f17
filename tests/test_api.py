"""Every name a rischan module exports resolves on that module, and every
name it imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rischan

# private modules export nothing, and ``__main__`` runs the CLI on import
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(rischan.__path__, "rischan.")
    if not info.name.rpartition(".")[2].startswith("_")
)
# the package's own sources; ``__init__`` imports only to re-export
SOURCES = sorted(p for p in Path(rischan.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _string_annotation_names(tree) -> set:
    """Names used inside the string annotations of ``tree``."""
    annotations = [
        ann for node in ast.walk(tree)
        for ann in (getattr(node, "returns", None), getattr(node, "annotation", None)) if ann is not None
    ]
    strings = [
        c.value for ann in annotations for c in ast.walk(ann)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    return {n.id for text in strings for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a module imports is used in it or re-exported by its
    ``__all__``. Lines marked ``# noqa`` keep names that the benchmark's
    tracer binds on the module."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _string_annotation_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it does not use: {unused}"
