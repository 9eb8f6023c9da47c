"""Guard: caches live on a graph, a map or inside one verdict, never in a
module.

A module-level memo would outlive the graphs and maps whose answers it
holds, and would keep growing across unrelated verdicts."""

import ast
import pathlib

import ultrashift

PACKAGE = pathlib.Path(ultrashift.__file__).parent
CACHE_DECORATORS = {"cache", "lru_cache"}
EMPTY_MAPPINGS = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary",
                  "WeakValueDictionary"}


def _name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_empty_mapping(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    return isinstance(node, ast.Call) and _name(node) in EMPTY_MAPPINGS \
        and not node.args and not node.keywords


def _modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, "no modules found; is the package path right?"
    for path in paths:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_function_is_decorated_with_a_global_cache():
    found = [f"{mod}:{node.lineno} {node.name}"
             for mod, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_name(dec) in CACHE_DECORATORS
                     for dec in node.decorator_list)]
    assert found == []


def test_no_module_level_memo_dict():
    found = []
    for mod, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and _is_empty_mapping(node.value):
                found.append(f"{mod}:{node.lineno}")
    assert found == []


def test_probe_memo_dies_with_its_verdict(monkeypatch):
    import gc
    import weakref

    from ultrashift import codes
    from ultrashift.corpus import build_fixture

    memos = []

    class Watched(codes._ProbeMemo):
        def __init__(self, phi):
            super().__init__(phi)
            memos.append(weakref.ref(self))

    monkeypatch.setattr(codes, "_ProbeMemo", Watched)
    fx = build_fixture("a")
    gc.disable()  # the memo must go by reference counting alone
    try:
        for name in ("all_d", "f3", "d_then_zero"):
            verdict = codes.probe_continuity(fx.phi, fx.points[name])
            assert verdict.status in ("holds", "fails")
        assert len(memos) == 3
        assert all(ref() is None for ref in memos)
    finally:
        gc.enable()
