"""Guard: caches live on a graph, a map or inside one verdict, never in a
module.

A module-level memo would outlive the graphs and maps whose answers it
holds, and would keep growing across unrelated verdicts.  A map's one
table dies with the map, is never shared, and serves every evaluation of
the map, in a probe or not."""

import ast
import gc
import pathlib
import weakref

from test_codes import _asking
import ultrashift
from ultrashift.codes import (
    MapPresentation,
    RuleMap,
    check_commuting,
    eval_resolved,
    probe_continuity,
)
from ultrashift.corpus import build_fixture
from ultrashift.intsets import INFINITE
from ultrashift.points import length, prefix

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


FC, FA = build_fixture("c"), build_fixture("a")


def _maps():
    """(map, points): a map with a window, one without, and a rule map,
    the three owners of a table, each new and with its fixture's points."""
    windowed = FC.maps["phi_finite"]
    assert windowed.window is not None and FA.phi.window is None
    return [(MapPresentation(FC.source, FC.target, windowed.classes),
             list(FC.points.values())),
            (MapPresentation(FA.source, FA.target, FA.phi.classes),
             list(FA.points.values())),
            (RuleMap(FA.source, FA.target, FA.phi.symbol_at),
             list(FA.points.values()))]


def test_a_maps_table_dies_with_the_map():
    gc.disable()  # the table must go by reference counting alone
    try:
        tables = []
        for phi, points in _maps():
            for x in points:
                assert probe_continuity(phi, x).status in ("holds", "fails")
            assert phi.table
            tables.append(weakref.ref(phi.table))
        del phi
        # the graphs, the fixtures and the modules keep no table
        assert all(ref() is None for ref in tables)
    finally:
        gc.enable()


def test_two_maps_never_share_a_table():
    one, two = _maps(), _maps()
    assert len({id(phi.table) for phi, _ in one + two}) == 6
    for phi, points in one:
        for x in points:
            eval_resolved(phi, x)
    assert all(phi.table for phi, _ in one)
    assert not any(phi.table for phi, _ in two)


def _windows_asked(phi, points) -> set:
    """The windows a probe of the map at each infinite point asks
    ``symbol_at`` for."""
    asked = _asking(phi)
    for x in points:
        if length(x) == INFINITE:
            probe_continuity(phi, x)
    return {prefix(y, phi.window) for y in asked}


def test_evaluations_outside_a_probe_fill_the_table_a_probe_reads():
    pool = FC.sample_pool(20, seed=3)
    phi = _maps()[0][0]
    assert check_commuting(phi, pool).status == "holds"
    seen = set(phi.table)
    # a map with a cold table asks for windows that check_commuting stored;
    # after check_commuting the probes ask for none of them
    cold = _windows_asked(_maps()[0][0], pool)
    assert cold & seen
    assert not _windows_asked(phi, pool) & seen
