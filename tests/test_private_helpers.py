"""Every private module-level helper in dwlab still has a caller.

A helper whose last caller is deleted is dead code that the public API
never reaches.  Uses are counted on the syntax tree (names, attributes and
import aliases), so a mention in a docstring or comment does not count,
and neither does a reference from the helper's own body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dwlab"


def _top_level_nodes():
    """(module file name, top-level statement) over every dwlab module."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            yield path.name, node


def _references(node):
    """Every name, attribute and imported name that a statement refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def test_every_private_helper_is_referenced():
    nodes = list(_top_level_nodes())
    private = [(module, node) for module, node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private, f"no private helpers found under {SRC}"
    orphans = [f"{module}:{node.name}" for module, node in private
               if not any(node.name in _references(other)
                          for _, other in nodes if other is not node)]
    assert not orphans, f"private helpers without a caller: {orphans}"
