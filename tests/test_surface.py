"""Every exported name has a caller in the engine, the CLI or the benchmark.

A name in a module's ``__all__`` counts as used when some module of
``src/hearstream`` or ``perfbench`` reads it, bare or as an attribute,
anywhere but in its own definition and its ``__all__`` entry. Tests do not
count: a helper that only tests reach is surface to delete.
"""

import ast
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
