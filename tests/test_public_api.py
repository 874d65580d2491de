"""Every public name and default in dwlab has a user besides the tests.

A public item is a module-level function or class whose name has no
leading underscore, or a method, property or dataclass field of such a
class; dunder methods are exempt.  It must be referenced from at least one
of: the dwlab sources outside its own definition, ``perfbench/*.py`` and
``tests/test_acceptance.py``.  An item that only the other tests reach is
API kept for tests, and is removed.

The same users must set every defaulted parameter of a public function or
method and every defaulted dataclass field: a parameter whose default no
user overrides is a second way of saying its default.  A call sets one by
keyword with a value other than the default literal, by position, or
through ``*`` or ``**``.

References are counted on the syntax tree, so a docstring, comment or
string does not count.  A module-level item counts an import of its name
or an attribute access ``.name`` anywhere, and a bare name that is read
in its own module; a class member counts only an attribute access.  A
call is matched by the name it calls, ``name(...)`` or ``x.name(...)``; a
dataclass field is set by a call of its class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dwlab"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    return {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}


def _users():
    """The syntax trees outside dwlab that count as users."""
    trees = [_parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return trees + [_parse(ROOT / "tests" / "test_acceptance.py")]


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
    modules, users = _modules(), _users()
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
    unused = _unused_public_items()
    assert not unused, f"public items that only tests reach: {unused}"


# -- defaults ---------------------------------------------------------


def _function_defaults(function, skip):
    """(position or None, parameter name, default node) per defaulted
    parameter; a position does not count the first `skip` parameters, the
    `self` or `cls` of a method."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, (arg, default) in enumerate(zip(positional[first:], args.defaults), first):
        yield index - skip, arg.arg, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg, default


def _field_defaults(cls):
    """(position, field name, default node) per defaulted field of a dataclass."""
    # `@dataclass` or `@dataclass(...)`
    if "dataclass" not in {getattr(getattr(d, "func", d), "id", None) for d in cls.decorator_list}:
        return
    fields = [member for member in cls.body
              if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)]
    for index, member in enumerate(fields):
        default = member.value
        if isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field":
            default = next((kw.value for kw in default.keywords if kw.arg == "default"), None)
        if default is not None:
            yield index, member.target.id, default


def _defaulted_parameters(modules):
    """(qualified parameter, called name, position, parameter name, default,
    definition) per defaulted parameter of a public function or method and
    per defaulted field of a public dataclass; a class's fields and its
    `__init__` are set by calls of the class."""
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                owners = [(node.name, node.name, node, _function_defaults(node, 0))]
            else:
                owners = [(node.name, node.name, node, _field_defaults(node))]
                owners += [(f"{node.name}.{member.name}",
                            node.name if member.name == "__init__" else member.name,
                            member, _function_defaults(member, 1))
                           for member in node.body if isinstance(member, ast.FunctionDef)
                           and (member.name == "__init__" or not member.name.startswith("_"))]
            for label, called, definition, defaults in owners:
                for position, param, default in defaults:
                    yield f"{module}.{label}({param})", called, position, param, default, definition


def _same_literal(value, default):
    """Whether a keyword's value is the default's own literal."""
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:  # not both literals: the same expression
        return ast.dump(value) == ast.dump(default)


def _sets(call, position, param, default):
    """Whether `call` gives `param` a value of its own."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) \
            or any(kw.arg is None for kw in call.keywords):
        return True
    if position is not None and position < len(call.args):
        return True
    return any(kw.arg == param and not _same_literal(kw.value, default) for kw in call.keywords)


def _calls(tree, name, skip=None):
    for node in _nodes(tree, skip):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) \
                    or (isinstance(func, ast.Attribute) and func.attr == name):
                yield node


def _parameters_only_tests_set():
    modules, users = _modules(), _users()
    parameters = list(_defaulted_parameters(modules))
    assert parameters, f"no defaulted parameters found under {SRC}"
    unset = []
    for qualified, called, position, param, default, definition in parameters:
        calls = [call for tree in modules.values() for call in _calls(tree, called, definition)]
        calls += [call for tree in users for call in _calls(tree, called)]
        if not any(_sets(call, position, param, default) for call in calls):
            unset.append(qualified)
    return unset


def test_every_default_is_overridden_outside_the_tests():
    unset = _parameters_only_tests_set()
    assert not unset, f"defaulted parameters that only tests set: {unset}"
