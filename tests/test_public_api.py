"""Every public name in dwlab is used by the package, the benchmark or the acceptance gate.

A public item is a module-level function or class whose name has no
leading underscore, or a method, property or dataclass field of such a
class; dunder methods are exempt.  It must be referenced from at least one
of: the dwlab sources outside its own definition, ``perfbench/*.py`` and
``tests/test_acceptance.py``.  An item that only the other tests reach is
API kept for tests, and is either removed or listed in `KEPT_FOR_TESTS`
with its reason.

References are counted on the syntax tree, so a docstring, comment or
string does not count.  A module-level item counts an import of its name
or an attribute access ``.name`` anywhere, and a bare name that is read
in its own module; a class member counts only an attribute access.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dwlab"

# "module.name" or "module.Class.member" -> why it stays with no user but the tests
KEPT_FOR_TESTS = {
    "semilinear.step": "the Strang scheme's one-step unit: tests/test_semilinear.py checks "
                       "its order, its kernel against evolve's and its blow-up signals",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_items(modules):
    """(module, qualified name, name, definition node, is a class member) per public item."""
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield module, f"{module}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        name = member.name
                    elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        name = member.target.id  # a dataclass field
                    else:
                        continue
                    if not name.startswith("_"):
                        yield module, f"{module}.{node.name}.{name}", name, member, True


def _nodes(tree, skip=None):
    """Every node of `tree` outside the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _refers(node, name, bare_name):
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2] == name
    return bare_name and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
        and node.id == name


def _unused_public_items():
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    users = [_parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    users.append(_parse(ROOT / "tests" / "test_acceptance.py"))
    items = list(_public_items(modules))
    assert items, f"no public items found under {SRC}"
    unused = []
    for home, qualified, name, definition, member in items:
        found = any(_refers(node, name, not member and module == home)
                    for module, tree in modules.items() for node in _nodes(tree, definition))
        found = found or any(_refers(node, name, False)
                             for tree in users for node in _nodes(tree))
        if not found:
            unused.append(qualified)
    return unused


def test_every_public_item_has_a_user_outside_the_tests():
    unused = [name for name in _unused_public_items() if name not in KEPT_FOR_TESTS]
    assert not unused, f"public items that only tests reach: {unused}"


def test_every_item_kept_for_tests_is_still_only_reached_by_tests():
    # an entry whose item gained a user, or was removed, goes from the list
    stale = sorted(KEPT_FOR_TESTS.keys() - set(_unused_public_items()))
    assert not stale, f"listed as kept for tests, but used elsewhere or gone: {stale}"
