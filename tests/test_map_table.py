"""The one table a map owns changes no answer, and lives and dies with the
map.

Every evaluation reads the map's table: a map with a window reads first
image symbols by window (compared with the reference in
``test_walks``), a map without one keeps image points by whole point and
splices a stored image of a shift onto the symbols before it.  Each answer
equals ``helpers_oracle.reference_eval``, which asks ``symbol_at`` once a
step and reads no table, whether the table is cold, warm, or emptied
every third answer.  A probe asks ``symbol_at`` for a window only when the
table lacks it.  No module keeps a cache: a table is never shared, and
goes with its map."""

import ast
import dataclasses
import gc
import pathlib
import weakref

import pytest

import ultrashift
from helpers_maps import random_window_maps
from helpers_oracle import (CAPS, apply_cap, asking, fresh, outcome,
                            reference_eval)
from ultrashift import graphs
from ultrashift.codes import (MapError, MapPresentation, ProbeBounds,
                              RuleMap, check_commuting, eval_map,
                              probe_continuity)
from ultrashift.corpus import build_fixture, d, f, n
from ultrashift.graphs import MinimalEmitter
from ultrashift.intsets import INFINITE
from ultrashift.paths import Block
from ultrashift.points import (ConvergenceBounds, FinitePoint,
                               PeriodicPoint, RepeatFamily, block_witness,
                               coordinate, length, prefix, shift)

FA, FB, FC = (build_fixture(name) for name in "abc")
CRITERION_8 = ProbeBounds(n_max=8, conv=ConvergenceBounds(m_max=4, n_max=12))


def _probe_all(phi, points) -> list:
    return [(v.status, v.detail, str(v.witness), v.exact, v.bounds)
            for v in (probe_continuity(phi, x, CRITERION_8) for x in points)]


# -- images by whole point ---------------------------------------------------------


def test_a_stored_shift_is_spliced_after_one_symbol():
    x = PeriodicPoint((d(), d(), f(2)), (f(3), f(1)))
    phi = fresh(FA.phi)
    assert phi.window is None
    eval_map(phi, shift(x))
    asked = asking(phi)
    want = reference_eval(FA.phi, x)
    assert outcome(phi, x) == want
    assert asked == [x]
    assert outcome(phi, x) == want
    assert asked == [x]  # x itself is now stored
    # the table holds the two image points and nothing more
    assert list(phi.table.values()) == [
        reference_eval(FA.phi, shift(x))[0], want[0]]


REPEATS = [(FA, seq) for seq in (
    RepeatFamily((d(),), PeriodicPoint((), (f(1),))),
    RepeatFamily((d(), f(2)), PeriodicPoint((f(3),), (d(),))),
    # blocks equal to the tail's cycle, as it is and rotated
    RepeatFamily((f(1), f(2)), PeriodicPoint((), (f(1), f(2)))),
    RepeatFamily((f(2), f(1)), PeriodicPoint((d(),), (f(1), f(2)))),
    RepeatFamily((d(),), PeriodicPoint((), (d(),))),
    RepeatFamily((d(), f(4)), FinitePoint((d(),), FA.points["zero"].tail)),
)] + [(FB, RepeatFamily((n(0), n(1)), PeriodicPoint((n(2),),
                                                    (n(1), n(0)))))]


@CAPS
@pytest.mark.parametrize("fx, seq", REPEATS,
                         ids=[f"{fx.name} {seq}" for fx, seq in REPEATS])
def test_repeat_terms_equal_the_reference(fx, seq, cap, monkeypatch):
    apply_cap(monkeypatch, cap)
    for phi in fx.maps.values():
        if phi.source is not fx.source:
            continue
        phi = fresh(phi)
        for _ in range(2):  # a cold table, then a warm one
            for k in range(1, 10):  # growing terms, as a probe reads them
                x = seq.at(k)
                assert outcome(phi, x) == reference_eval(phi, x), x


def test_equal_finite_points_with_differently_named_tails():
    # a rule that hands the tail back: the image's tail keeps the input's
    # name, so a stored image must not serve an equal point named apart
    g = FA.source
    named = FA.points["zero"].tail
    plain = dataclasses.replace(named, name=None)
    assert named == plain and str(named) != str(plain)
    identity = RuleMap(g, g, lambda x: coordinate(x, 1), "identity rule")
    for phi in (identity, fresh(FA.phi)):
        for path in ((), (d(),), (f(2), d()), (d(), d(), f(5))):
            for tail in (named, plain, named):
                for y in (FinitePoint(path, tail),
                          FinitePoint((d(),) + path, tail)):
                    assert outcome(phi, y) == reference_eval(phi, y), y


def test_failed_images_are_not_stored():
    fx = build_fixture("d")
    bad = RuleMap(fx.source, fx.target, lambda x: f(-5), "broken")
    x = PeriodicPoint((), (fx.points["all_e0"].cycle[0],))
    for _ in range(2):
        with pytest.raises(MapError):
            eval_map(bad, x)
    assert bad.table == {}


# -- first image symbols by window -------------------------------------------------


def test_window_table_entries_are_the_maps_symbols():
    checked = emitters = 0
    for phi, pool in random_window_maps(47, 4):
        _probe_all(phi, pool[:5])
        for key, sym in phi.table.items():
            y = block_witness(phi.source, Block(key)) if key else pool[0]
            assert prefix(y, phi.window) == key
            assert fresh(phi).symbol_at(y) == sym, (phi, key)
            checked += 1
            emitters += isinstance(sym, MinimalEmitter)
    assert checked > 200 and emitters > 0


def _refused(phi, y) -> bool:
    try:
        phi.symbol_at(y)
    except MapError:
        return True
    return False


def test_a_probe_asks_for_each_window_once():
    probes = 0
    for phi, pool in list(random_window_maps(43, 4)) + [
            (FC.maps[k], list(FC.points.values()))
            for k in ("phi_finite", "phi_infinite")]:
        for x in pool[:6]:
            # a cold table, so the probe asks for every window it reads
            cold = fresh(phi)
            asked = asking(cold)
            try:
                probe_continuity(cold, x, CRITERION_8)
            except MapError:
                pass  # the index shift map refuses some images
            keys = [prefix(y, phi.window) for y in asked]
            assert len(keys) == len(set(keys)), (phi, x)
            probes += len(keys) > 1
    assert probes > 20


def test_a_probe_asks_only_for_windows_its_table_lacks():
    asked_anew = 0
    for phi, pool in list(random_window_maps(53, 3)) + [
            (FC.maps[k], list(FC.points.values()))
            for k in ("phi_finite", "phi_infinite")]:
        want = _probe_all(fresh(phi), pool[:6])
        phi = fresh(phi)
        asked = asking(phi)
        got = []
        for x in pool[:6]:  # each probe reads what those before it left
            seen = set(phi.table)
            asked.clear()
            got += _probe_all(phi, [x])
            keys = [prefix(y, phi.window) for y in asked]
            assert len(keys) == len(set(keys)), (phi, x)
            assert not set(keys) & seen, (phi, x)
            asked_anew += len(keys)
        assert got == want, phi
        # the same points again ask only for windows that no class takes
        asked.clear()
        assert _probe_all(phi, pool[:3]) == want[:3]
        assert all(_refused(fresh(phi), y) for y in asked), phi
    assert asked_anew > 100


def test_a_table_is_emptied_at_the_cap(monkeypatch):
    # window maps, then maps without a window, which store whole images
    cases = list(random_window_maps(59, 2)) + [
        (FA.phi, list(FA.points.values())),
        (RuleMap(FA.source, FA.target, FA.phi.symbol_at, "rule"),
         list(FA.points.values()))]
    want = [_probe_all(fresh(phi), pool[:6]) for phi, pool in cases]
    monkeypatch.setattr(graphs, "EDGE_MEMO_CAP", 3)
    for (phi, pool), expected in zip(cases, want):
        phi = fresh(phi)
        asked = asking(phi)
        sizes = []

        def storing(key, value, store=phi.table.store, table=phi.table):
            got = store(key, value)
            sizes.append(len(table))
            return got
        phi.table.store = storing
        assert _probe_all(phi, pool[:6]) == expected, phi
        keys = {y if phi.window is None else prefix(y, phi.window)
                for y in asked}
        assert len(keys) > 3
        assert sizes and max(sizes) <= 3


# -- where tables live -------------------------------------------------------------


PACKAGE = pathlib.Path(ultrashift.__file__).parent


def _name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, "no modules found; is the package path right?"
    for path in paths:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


# a module-level memo would outlive the graphs and maps whose answers it
# holds, and keep growing across unrelated verdicts


def test_no_function_is_decorated_with_a_global_cache():
    found = [f"{mod}:{node.lineno} {node.name}"
             for mod, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_name(dec) in ("cache", "lru_cache")
                     for dec in node.decorator_list)]
    assert found == []


def test_no_module_level_memo_dict():
    found = []
    for mod, tree in _modules():
        for node in tree.body:
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                    isinstance(value, ast.Dict) and not value.keys or
                    isinstance(value, ast.Call) and not value.args and
                    not value.keywords and _name(value) in (
                        "dict", "defaultdict", "OrderedDict",
                        "WeakKeyDictionary", "WeakValueDictionary")):
                found.append(f"{mod}:{node.lineno}")
    assert found == []


def _cap_readers(node, scope=()) -> list:
    """The scopes (dotted function and class names) that read
    ``EDGE_MEMO_CAP`` below node."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif _name(child) == "EDGE_MEMO_CAP" and \
                isinstance(child.ctx, ast.Load):
            found.append(".".join(scope))
        found += _cap_readers(child, inner)
    return found


def test_one_memo_type_holds_the_cap():
    # one cache policy: the cap is read by Memo.store alone, and every
    # graph memo and map table stores through it
    assert [(mod, scope) for mod, tree in _modules()
            for scope in _cap_readers(tree)] == [("graphs.py", "Memo.store")]
    for phi, points in _maps():
        for x in points:
            probe_continuity(phi, x)
        assert type(phi.table) is graphs.Memo and phi.table
        for g in (phi.source, phi.target):
            assert g._memos.default_factory is graphs.Memo
            assert {type(m) for m in g._memos.values()} == {graphs.Memo}


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
            eval_map(phi, x)
    assert all(phi.table for phi, _ in one)
    assert not any(phi.table for phi, _ in two)


def _windows_asked(phi, points) -> set:
    """The windows a probe of the map at each infinite point asks
    ``symbol_at`` for."""
    asked = asking(phi)
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
