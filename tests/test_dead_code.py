"""No dead functions in the package.

Every module-level function and every non-dunder method defined in
`src/modform` must be used somewhere in `src`, `tests` or `demos`, outside
its own body: as a name, as an attribute, or as an imported name.  Uses are
read from the syntax trees, so a name that only appears in a string or a
comment does not count.

The test matches names, not bindings.  A definition whose name is also used
for something else escapes it: a short name like `m` is the name of many
local variables, so an unused method `m` would shadow itself and pass.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modform"
SOURCES = [ROOT / "src", ROOT / "tests", ROOT / "demos"]


def _trees():
    for base in SOURCES:
        for path in sorted(base.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree):
    """The module-level functions and the non-dunder methods of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _uses(tree):
    """(name, line) for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def dead_definitions():
    trees = dict(_trees())
    uses = {}
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[path]):
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in uses.get(node.name, ())
            ):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return dead


def test_no_dead_functions():
    assert dead_definitions() == []
