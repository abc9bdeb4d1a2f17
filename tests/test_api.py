"""Every name a rischan module exports resolves on that module and has a
caller, every name it imports is used, and every helper it does not export
has a caller."""

import ast
import collections
import importlib
import pkgutil
import re
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
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _string_annotation_names(tree) -> list:
    """Names used inside the string annotations of ``tree``, once per use."""
    annotations = [
        ann for node in ast.walk(tree)
        for ann in (getattr(node, "returns", None), getattr(node, "annotation", None)) if ann is not None
    ]
    strings = [
        c.value for ann in annotations for c in ast.walk(ann)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    return [n.id for text in strings for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)]


def _module_all(tree) -> set:
    """The names in the ``__all__`` of the module ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_string_annotation_names(tree)) | _module_all(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it does not use: {unused}"


def _references(node) -> collections.Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    ) + collections.Counter(_string_annotation_names(node))


def test_no_orphan_helpers():
    """Every module-level function or class that its module's ``__all__``
    does not export is referenced by name somewhere in the package outside
    its own definition."""
    trees = {path: ast.parse(path.read_text()) for path in Path(rischan.__file__).parent.glob("*.py")}
    used = sum((_references(tree) for tree in trees.values()), collections.Counter())
    orphans = [
        f"{path.name}: {node.name}"
        for path, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in _module_all(tree)
        and used[node.name] <= _references(node)[node.name]
    ]
    assert not orphans, f"unexported definitions that nothing in the package references: {orphans}"


def _definitions(tree) -> dict:
    """The module-level function, class and assignment nodes of ``tree``,
    by the name each defines."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            found.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    return found


def _outside_refs(path) -> set:
    """The names a demo or benchmark script refers to: names, attributes,
    imported names, and identifier strings (the tracer binds by string)."""
    tree = ast.parse(path.read_text())
    return set(_references(tree)) | {
        alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names
    } | {
        n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def test_every_export_has_a_caller():
    """Every name in a module's ``__all__`` is used by the program or named
    in its documentation: another package module reads it (a re-export in
    ``__init__`` is not a read), its own module reads it outside its
    definition, a demo or benchmark script refers to it, or README names
    it. An export that only its tests call is dead weight."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    refs = {path: _references(tree) for path, tree in trees.items()}
    outside = set().union(*(_outside_refs(p) for d in ("demos", "bench") for p in (ROOT / d).glob("*.py")))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = []
    for path, tree in sorted(trees.items()):
        definitions = _definitions(tree)
        for name in sorted(_module_all(tree)):
            own = name in definitions and refs[path][name] > _references(definitions[name])[name]
            if not (own or name in outside or name in readme
                    or any(refs[other][name] for other in trees if other != path)):
                unused.append(f"{path.name}: {name}")
    assert not unused, f"exported names with no caller outside the tests: {unused}"


def _substream_tags(tree) -> set:
    """The leading string tags of the path of every ``substream(seed, *path)``
    call in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "substream":
            tags = []
            for arg in node.args[1:]:
                if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                    break
                tags.append(arg.value)
            found.add(tuple(tags))
    return found


def test_readme_lists_every_stream_path():
    """README's determinism contract writes out the path of every stream the
    package derives: each call's leading tags open a path listed there."""
    readme = (ROOT / "README.md").read_text()
    contract = readme.partition("## Determinism contract")[2].partition("\n## ")[0]
    tags = set().union(*(_substream_tags(ast.parse(path.read_text())) for path in SOURCES))
    assert ("link", "h") in tags and ("sub6", "link", "h") in tags
    missing = sorted(t for t in tags if not t or "(" + ", ".join(f'"{tag}"' for tag in t) not in contract)
    assert not missing, f"stream paths the README's determinism contract does not list: {missing}"


def test_no_unused_parameters():
    """Every parameter of every ``def`` in the package is read in its body.
    ``self``, ``cls`` and ``_``-prefixed names are exempt (a lambda is not a
    ``def``)."""
    unused = []
    for path in sorted(Path(rischan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            read = {
                n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unused += [
                f"{path.name}:{node.lineno} {node.name}({name})" for name in params
                if name not in read and name not in ("self", "cls") and not name.startswith("_")
            ]
    assert not unused, f"parameters their functions never read: {unused}"
