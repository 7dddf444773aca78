"""Every exported name and public member has a caller in the engine, the CLI
or the benchmark.

A name in a module's ``__all__`` counts as used when some module of
``src/hearstream`` or ``perfbench`` reads it, bare or as an attribute,
anywhere but in its own definition and its ``__all__`` entry. A public
method, classmethod or property of a public class counts as used when some
such module reads it as an attribute outside its own definition; dunders
and overrides of a base-class member are exempt. Tests do not count: a
helper that only tests reach is surface to delete.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hearstream").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads: a bare name in load context, or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_is_used():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert any(_exports(tree) for tree in trees.values())
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unused = [
        f"{path.name}: {name}"
        for path, tree in trees.items()
        for name in _exports(tree)
        if name not in read
    ]
    assert unused == [], "exported but read by no module of src/ or perfbench/"


def _members(path: Path, tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """``Class.member`` and its definition for each public method, classmethod
    and property of a public class in the module, less dunders and overrides
    of a base-class member."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        cls = getattr(importlib.import_module(f"hearstream.{path.stem}"), node.name)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                continue
            if any(hasattr(base, item.name) for base in cls.__mro__[1:]):
                continue
            found.append((f"{node.name}.{item.name}", item))
    return found


def _attribute_reads(tree: ast.Module) -> list[ast.Attribute]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def test_every_public_member_is_used():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reads = {path: _attribute_reads(tree) for path, tree in trees.items()}
    members = [
        (path, name, node)
        for path, tree in trees.items()
        if path.parent.name == "hearstream"
        for name, node in _members(path, tree)
    ]
    assert members

    def used(path, node):
        return any(
            read.attr == node.name
            and not (where == path and node.lineno <= read.lineno <= node.end_lineno)
            for where, found in reads.items()
            for read in found
        )

    unused = [f"{path.name}: {name}" for path, name, node in members if not used(path, node)]
    assert unused == [], "public members read by no module of src/ or perfbench/"
