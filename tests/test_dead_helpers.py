"""Guard against dead private helpers in the package."""

import ast
import pathlib

import ultrashift

PACKAGE = pathlib.Path(ultrashift.__file__).parent


def _private_defs_and_uses():
    defs, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_") and \
                    not node.name.startswith("__"):
                defs.append((path.name, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                uses.extend((path.name, node.lineno, a.name)
                            for a in node.names)
    return defs, uses


def test_every_private_top_level_helper_is_referenced():
    defs, uses = _private_defs_and_uses()
    assert defs, "no private helpers found; is the package path right?"
    dead = []
    for module, node in defs:
        # a reference from inside the helper's own body does not count
        used = any(name == node.name and not (
            module == mod and node.lineno <= line <= node.end_lineno)
            for mod, line, name in uses)
        if not used:
            dead.append(f"{module}:{node.lineno} {node.name}")
    assert dead == []
