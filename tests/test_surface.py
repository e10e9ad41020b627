"""Nothing in `src/qaskey` lives only for the tests or for no one: every
module-level function and constant, and every method, public or private
(dunders aside), is named somewhere in the package besides its own
definition.  A helper that only tests call belongs beside them
(`tests/closed_forms.py`); one that nothing calls is deleted."""

import ast
from collections import Counter
from pathlib import Path

import qaskey


def _uses(node) -> tuple:
    """(names, attributes) named inside node: loaded or imported names, and
    the attribute of every `obj.attr`."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _surface(tree):
    """(qualified name, name, node, is_method) of each module-level function
    and constant and each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _unused(private: bool) -> list:
    """Names of the given kind that src/ names only in their own definition."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(qaskey.__file__).parent.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _uses(tree)
        names, attrs = names + n, attrs + a
    unused = []
    for module, tree in trees.items():
        for qualname, name, node, is_method in _surface(tree):
            if name.startswith("_") != private or (name.startswith("__") and name.endswith("__")):
                continue
            own_names, own_attrs = _uses(node)
            # a method is only ever reached as an attribute
            used = attrs[name] - own_attrs[name]
            if not is_method:
                used += names[name] - own_names[name]
            if used <= 0:
                unused.append(f"{module}: {qualname}")
    return unused


def test_every_public_name_has_a_caller_in_src():
    assert _unused(private=False) == []


def test_every_private_name_has_a_caller_in_src():
    assert _unused(private=True) == []
