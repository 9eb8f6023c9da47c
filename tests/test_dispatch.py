"""A presentation reads only what its schemas read: the window-keyed
symbols of a map's table give the answers of a walk over every class,
and the window is the smallest one the first image symbol depends on."""

import random

from helpers_random import identity_map, mirror_map, random_family_graph
from test_acceptance import _localizable, _window_map
from test_codes import _fresh
from ultrashift import sampling
from ultrashift.codes import (
    MapPresentation,
    OracleClass,
    PartitionError,
    RuleMap,
    SchemaClass,
    _window_symbols,
)
from ultrashift.corpus import build_fixture, d, e, f, finite_cycle_graph
from ultrashift.definable import LitAtom, PcSchema, RepAtom, VarAtom
from ultrashift.intsets import IndexSet
from ultrashift.points import shift_n

FA = build_fixture("a")
GA, HA = FA.source, FA.target
A_W = FA.points["zero"].tail
B_V = next(c.symbol for c in FA.phi.classes if isinstance(c, OracleClass))


def _reference(phi, x):
    """symbol_at as a walk over every class, in class order: the symbol,
    or the classes a PartitionError lists."""
    found = [(c, sym) for c in phi.classes for sym in c.symbols_for(x)]
    if len(found) != 1:
        return "partition", [str(c) for c, _ in found]
    return "symbol", found[0][1]


def _answer(symbol_at, x):
    try:
        return "symbol", symbol_at(x)
    except PartitionError as err:
        return "partition", err.matches


def _pool(g, seed, size=30):
    pool = sampling.point_pool(g, random.Random(seed), size)
    return [shift_n(x, k) for x in pool for k in (0, 1, 2)]


def _assert_same_answers(phi, pool) -> int:
    """symbol_at equals the reference walk, and so do the symbols a map
    with a window reads through its table, as evaluation reads them.  The
    table starts cold and is asked twice, so its second pass reads stored
    symbols."""
    phi = _fresh(phi)
    tabled = None if phi.window is None else \
        (lambda x: _window_symbols(phi, x, 1)[0])
    for _ in range(2):
        for x in pool:
            want = _reference(phi, x)
            assert _answer(phi.symbol_at, x) == want, (phi, x)
            if tabled is not None:
                assert _answer(tabled, x) == want, (phi, x)
    return len(pool)


def _broken(phi):
    """The classes twice over (every point matches two classes), and all
    but the first class (the first class's points match none)."""
    return [MapPresentation(phi.source, phi.target, phi.classes * 2),
            MapPresentation(phi.source, phi.target, phi.classes[1:])]


def test_window_keys_match_a_class_walk_on_random_maps():
    rng = random.Random(23)
    compared = 0
    for tag in range(10):
        g = random_family_graph(rng, tag)
        pool = _pool(g, tag)
        for phi in (mirror_map(g), identity_map(g)):
            assert phi.window == 1
            for psi in [phi] + _broken(phi):
                compared += _assert_same_answers(psi, pool)
    assert compared > 1000


def test_window_keys_match_a_class_walk_on_fixture_maps():
    compared = windows = 0
    for name in "abcd":
        fx = build_fixture(name)
        for phi in fx.maps.values():
            if not isinstance(phi, MapPresentation):
                continue
            pool = _pool(phi.source, 4, 40)
            if phi.source is fx.source:
                pool += [shift_n(x, k) for x in fx.points.values()
                         for k in (0, 1, 2)]
            compared += _assert_same_answers(phi, pool)
            windows += phi.window is not None
    assert compared > 500
    assert windows >= 2


def test_every_first_symbol_kind_answers_like_a_class_walk():
    ge1 = IndexSet.at_least(1)
    classes = [
        SchemaClass([PcSchema(1, (RepAtom(d()), VarAtom("f")), ge1)],
                    family="e", index_domain=ge1, label="rep"),
        SchemaClass([PcSchema(1, (LitAtom(f(2)), LitAtom(d())))],
                    symbol=e(2), label="literal"),
        SchemaClass([PcSchema(2, (LitAtom(f(3)),))], symbol=e(3),
                    label="anchored at 2"),
        SchemaClass([PcSchema(1, (LitAtom(A_W),))], symbol=B_V,
                    label="emitter"),
        SchemaClass([], symbol=e(4), label="empty"),
        SchemaClass([PcSchema(1, (VarAtom("f"), VarAtom("f")), ge1)],
                    family="e", index_domain=ge1, label="pair"),
        OracleClass(e(5), lambda x: str(x).startswith("(d[0] d[0]"),
                    "oracle"),
    ]
    pool = _pool(GA, 6, 40)
    for k in range(len(classes)):
        # each class alone, then with those before it
        for phi in (MapPresentation(GA, HA, classes[k:k + 1]),
                    MapPresentation(GA, HA, classes[:k + 1])):
            _assert_same_answers(phi, pool)


def test_window_is_the_smallest_localizing_window():
    for g in (finite_cycle_graph(3), finite_cycle_graph(4)):
        h = mirror_map(g).target
        maps = [mirror_map(g), identity_map(g)] + \
            [_window_map(g, h, w) for w in (1, 2, 3)]
        for phi in maps:
            smallest = next(w for w in (1, 2, 3) if _localizable(phi, g, w))
            assert phi.window == smallest, (g.name, phi.label)
            _assert_same_answers(phi, _pool(g, 11, 20))


def test_window_is_none_where_the_syntax_gives_no_bound():
    ge1 = IndexSet.at_least(1)
    rep = MapPresentation(GA, HA, [SchemaClass(
        [PcSchema(1, (RepAtom(d()), VarAtom("f")), ge1)],
        family="e", index_domain=ge1)])
    oracle = MapPresentation(GA, HA, [OracleClass(e(1), lambda x: True)])
    rule = RuleMap(GA, HA, lambda x: e(1))
    assert FA.phi.window is None  # it has both
    assert rep.window is None and oracle.window is None
    assert rule.window is None
    anchored = MapPresentation(GA, HA, [SchemaClass(
        [PcSchema(3, (LitAtom(d()), LitAtom(f(1))))], symbol=e(1))])
    assert anchored.window == 4
    assert MapPresentation(GA, HA, [SchemaClass([], symbol=e(1))]) \
        .window == 0
