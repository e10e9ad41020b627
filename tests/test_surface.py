"""Nothing in `src/qaskey` lives only for the tests: every public
module-level function and constant, and every public method, is named
somewhere in the package besides its own definition.  A helper that only
tests call belongs beside them (`tests/closed_forms.py`)."""

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


def _public_surface(tree):
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


def test_every_public_name_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(qaskey.__file__).parent.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _uses(tree)
        names, attrs = names + n, attrs + a
    unused = []
    for module, tree in trees.items():
        for qualname, name, node, is_method in _public_surface(tree):
            own_names, own_attrs = _uses(node)
            # a method is only ever reached as an attribute
            used = attrs[name] - own_attrs[name]
            if not is_method:
                used += names[name] - own_names[name]
            if not name.startswith("_") and used <= 0:
                unused.append(f"{module}: {qualname}")
    assert not unused, f"named nowhere else in src/: {unused}"
