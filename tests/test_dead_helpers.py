"""Guard against dead private helpers and dead helper parameters in the
package, and against checks that depend on how Python is run; and keep
the tests' shared code in helper modules."""

import ast
import pathlib

import ultrashift

PACKAGE = pathlib.Path(ultrashift.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_defs_and_uses():
    """(private top-level helpers, private methods of top-level classes,
    every name read) in the package."""
    defs, methods, uses = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    _is_private(node.name):
                defs.append((path.name, node))
            if isinstance(node, ast.ClassDef):
                methods += [(path.name, m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and
                            _is_private(m.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                uses.extend((path.name, node.lineno, a.name)
                            for a in node.names)
    return defs, methods, uses


def _unreferenced(defs, uses) -> list:
    dead = []
    for module, node in defs:
        # a reference from inside the definition's own body does not count
        used = any(name == node.name and not (
            module == mod and node.lineno <= line <= node.end_lineno)
            for mod, line, name in uses)
        if not used:
            dead.append(f"{module}:{node.lineno} {node.name}")
    return dead


def test_every_private_top_level_helper_is_referenced():
    defs, _, uses = _private_defs_and_uses()
    assert defs, "no private helpers found; is the package path right?"
    assert _unreferenced(defs, uses) == []


def test_every_private_method_is_referenced():
    _, methods, uses = _private_defs_and_uses()
    assert methods, "no private methods found; is the package path right?"
    assert _unreferenced(methods, uses) == []


def _parameters(node):
    """(positional, all, defaulted) parameters of a function definition."""
    a = node.args
    positional = a.posonlyargs + a.args
    defaulted = positional[len(positional) - len(a.defaults):] + [
        p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, positional + a.kwonlyargs, defaulted


def _passes(call, positional, param) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg in (None, param.arg) for k in call.keywords):
        return True
    return param in positional and positional.index(param) < len(call.args)


def test_every_private_helper_parameter_is_read_and_set():
    # a parameter nothing reads, or a default no call overrides, is an
    # option that selects nothing
    modules = [(path.name, ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(PACKAGE.glob("*.py"))]
    calls = {}
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    dead = []
    for module, tree in modules:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or \
                    not node.name.startswith("_") or \
                    node.name.startswith("__"):
                continue
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and
                    isinstance(n.ctx, ast.Load)}
            positional, params, defaulted = _parameters(node)
            where = f"{module}:{node.lineno} {node.name}"
            dead += [f"{where}({p.arg}) is never read" for p in params
                     if p.arg not in read]
            dead += [f"{where}({p.arg}) is never passed" for p in defaulted
                     if not any(_passes(c, positional, p)
                                for c in calls.get(node.name, []))]
    assert dead == []


def _calls_by_name(paths):
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_public_default_and_method_default_is_passed():
    # a default that no call in the package, the benchmark or the tests
    # overrides selects nothing; constructors are called by class name
    root = PACKAGE.parent.parent
    calls = _calls_by_name(path for tree in ("src", "bench", "tests")
                           for path in sorted((root / tree).rglob("*.py")))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = []  # (label, node, name calls use, leading params calls skip)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                defs.append((node.name, node, node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in m.decorator_list)
                    called = node.name if m.name == "__init__" else m.name
                    defs.append((f"{node.name}.{m.name}", m, called,
                                 0 if static else 1))
        for label, node, called, skip in defs:
            positional, _, defaulted = _parameters(node)
            dead += [f"{path.name}:{node.lineno} {label}({p.arg})"
                     for p in defaulted
                     if not any(_passes(c, positional[skip:], p)
                                for c in calls.get(called, []))]
    assert dead == []


def test_no_module_imports_a_private_name_from_a_sibling():
    # a helper two modules share is public in the module that defines it
    siblings = {p.stem for p in PACKAGE.glob("*.py")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # sibling modules bound by `from . import m`
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or \
                (node.module or "").split(".")[0] == PACKAGE.name
            if not internal:
                continue
            for a in node.names:
                if node.module is None and a.name in siblings:
                    modules.add(a.asname or a.name)
                elif a.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} {a.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules and \
                    node.attr.startswith("_"):
                found.append(f"{path.name}:{node.lineno} "
                             f"{node.value.id}.{node.attr}")
    assert found == []


def _dataclass_fields(node):
    """The fields of a dataclass definition as (name, has a plain default),
    in order; None for a class that is no dataclass."""
    if not any((getattr(d, "id", None) or getattr(d, "attr", None) or
                getattr(getattr(d, "func", None), "id", None)) == "dataclass"
               for d in node.decorator_list):
        return None
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        v = stmt.value
        factory = isinstance(v, ast.Call) and \
            getattr(v.func, "id", None) == "field" and \
            any(k.arg == "default_factory" for k in v.keywords)
        fields.append((stmt.target.id, v is not None and not factory))
    return fields


def test_every_dataclass_default_is_set_by_some_constructor_call():
    # a field default that no constructor call overrides is a bound or
    # label with two homes; dataclasses.replace sets fields by name too
    root = PACKAGE.parent.parent
    calls = _calls_by_name(path for tree in ("src", "bench", "tests")
                           for path in sorted((root / tree).rglob("*.py")))
    replaced = {k.arg for c in calls.get("replace", []) for k in c.keywords}
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            fields = isinstance(node, ast.ClassDef) and \
                _dataclass_fields(node)
            for pos, (name, plain) in enumerate(fields or []):
                if plain and name not in replaced and not any(
                        any(isinstance(a, ast.Starred) for a in c.args) or
                        any(k.arg in (None, name) for k in c.keywords) or
                        pos < len(c.args)
                        for c in calls.get(node.name, [])):
                    dead.append(f"{path.name}:{node.lineno} "
                                f"{node.name}.{name}")
    assert dead == []


def test_no_module_reads_the_environment():
    # a verdict's bounds come from its checker and the command line only
    reads = ("environ", "environb", "getenv")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.name if isinstance(node, ast.alias) else None
            if name in reads:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_module_checks_with_assert():
    # python -O strips assert statements, so a check the package relies on
    # must raise an error of its own
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_test_module_imports_from_a_test_module():
    # what two test modules share lives in a tests/helpers_*.py module, so
    # that each test module runs, and can be folded or removed, on its own
    found = []
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) \
                else [a.name for a in node.names] \
                if isinstance(node, ast.Import) else []
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0].startswith("test_")]
    assert found == []
