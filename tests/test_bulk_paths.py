"""The bulk paths of a probe change no answer: adjacency read from the
graph's memo in one pass, the window walk that looks up every step at once
(equal to the reference walk of ``test_codes._reference_walk``), and the
canonical-form shortcuts equal the per-item walks they replace; the
constant approach strategy, which a probe no longer evaluates, holds at
every point; and bounds that bound nothing are refused."""

import random

import pytest

from helpers_random import mirror_map, random_family_graph
from test_acceptance import _window_map
from test_codes import CAPS, _asking, _cap, _fresh, _reference_walk
from ultrashift import graphs, sampling
from ultrashift.codes import (
    MapError,
    MapPresentation,
    ProbeBounds,
    SchemaClass,
    _orbit_closure,
    _window_symbols,
    eval_map,
    probe_continuity,
)
from ultrashift.corpus import build_fixture
from ultrashift.definable import LitAtom, PcSchema, VarAtom
from ultrashift.graphs import EdgeRef, MinimalEmitter
from ultrashift.points import (
    ConvergenceBounds,
    FinitePoint,
    PeriodicPoint,
    PointError,
    _agreement,
    _primitive,
    check_convergence,
    length,
    prefix,
    shift_n,
    validate_point,
)
from ultrashift.verdicts import FAILS, HOLDS

FIXTURES = [build_fixture(name) for name in "abcd"]


# -- adjacency ------------------------------------------------------------------


def _reference_problems(g, x):
    """validate_point's answer, walked pair by pair through ``adjacent``."""
    emitters, complete = g.minimal_infinite_emitters()
    if isinstance(x, FinitePoint):
        edges = list(x.path)
    else:
        edges = list(x.preamble) + list(x.cycle) + [x.cycle[0]]
    for e in edges:
        if not g.has_edge(e):
            return [f"edge {e} does not exist"]
    problems = [f"{prev} does not connect to {nxt}"
                for prev, nxt in zip(edges, edges[1:])
                if not g.adjacent(prev, nxt)]
    if isinstance(x, PeriodicPoint):
        return problems
    if x.tail is None:
        return problems + ["finite points need a tail emitter"]
    pool = g.range_emitters(x.path[-1]) if x.path else emitters
    if x.tail not in pool:
        problems.append(f"{x.tail} is not a legal tail here" if complete
                        else f"unknown: cannot certify tail {x.tail}")
    return problems


def _broken_points(g, tail):
    """Points of g's edges with one pair that does not connect: in the
    preamble, at the preamble-to-cycle junction, at the cycle's wrap, and
    in a finite path; plus points through an edge outside the graph."""
    edges = [EdgeRef(fam, k) for fam, k in g.all_edges().sample(6)]
    bad = [(a, b) for a in edges for b in edges if not g.adjacent(a, b)]
    loops = [a for a in edges if g.adjacent(a, a)]
    out = []
    for a, b in bad[:6]:
        out.append((f"{a} does not connect to {b}",
                    [PeriodicPoint((a, b), (b,)),  # in the preamble
                     PeriodicPoint((a,), (b, a)),  # at the junction
                     PeriodicPoint((), (b,) + (a,) * 2),  # at the wrap
                     FinitePoint((a, b), tail)]))
        out.append((f"{a} does not connect to {b}",
                    [PeriodicPoint((c, a), (b,)) for c in loops[:1]]))
    ghost = EdgeRef(edges[0].family, -10 ** 6)
    missing = EdgeRef("no_such_family", 0)
    out.append((f"edge {ghost} does not exist",
                [PeriodicPoint((), (ghost,)),
                 PeriodicPoint((edges[0],), (ghost, edges[0]))] +
                # without a tail a one-edge path meets no range
                [FinitePoint((ghost,), tail)] * (tail is not None)))
    out.append((f"edge {missing} does not exist",
                [FinitePoint((edges[0], missing), tail)]))
    return out


def _validation_cases():
    """(graph, points, broken points) over the fixtures' graphs and seeded
    random family graphs."""
    rng = random.Random(61)
    cases = []
    for fx in FIXTURES:
        for g in (fx.source, fx.target):
            pool = sampling.point_pool(g, random.Random(3), 25)
            cases.append((g, pool))
    for tag in range(6):
        g = random_family_graph(rng, tag)
        cases.append((g, sampling.point_pool(g, random.Random(tag), 25)))
    return cases


@pytest.mark.parametrize("memo", ["cold", "warm", "emptied at the cap"])
def test_validate_point_equals_the_per_pair_walk(memo, monkeypatch):
    if memo == "emptied at the cap":
        monkeypatch.setattr(graphs, "EDGE_MEMO_CAP", 3)
    seen = set()
    compared = 0
    for g, pool in _validation_cases():
        tail = next(iter(g.minimal_infinite_emitters()[0]), None)
        points = list(pool)
        for problem, broken in _broken_points(g, tail):
            for x in broken:
                if problem in _reference_problems(g, x):
                    seen.add(problem.split()[0] == "edge")
                    points.append(x)
        for x in points:
            if memo == "cold":
                g._memos.clear()
                got = validate_point(g, x)
                g._memos.clear()
                want = _reference_problems(g, x)
            else:
                want = _reference_problems(g, x)
                got = validate_point(g, x)
            assert got == want, (g.name, x)
            compared += 1
    assert seen == {True, False}  # broken pairs and missing edges both met
    assert compared > 400


def test_known_adjacent_reads_only_true_answers():
    g = FIXTURES[3].source
    e = [EdgeRef("e", k) for k in range(3)]
    g._memos.clear()
    assert not g.known_adjacent([e[0], e[0]])  # not asked yet
    assert g.adjacent(e[0], e[0]) and not g.adjacent(e[1], e[2])
    assert g.known_adjacent([e[0], e[0], e[0]])
    assert not g.known_adjacent([e[0], e[0], e[1], e[2]])
    assert g.known_adjacent([e[1]]) and g.known_adjacent(())


# -- the window walk -------------------------------------------------------------


def _anchored_window_map(g, w: int):
    """Mirrors coordinate w of g's points, emitters included, onto the
    mirror graph: a window-w map whose images of finite points are finite.
    With w = 0 its one class has no schema, so every symbol is refused."""
    h = mirror_map(g).target
    if w == 0:
        return MapPresentation(g, h, [SchemaClass([], symbol=EdgeRef(
            next(iter(h.edge_families)), 0))], "window-0")
    classes = [SchemaClass([PcSchema(w, (VarAtom(name),), ef.domain)],
                           family=name, index_domain=ef.domain)
               for name, ef in g.edge_families.items()]
    tails = g.minimal_infinite_emitters()[0]
    if tails:
        classes.append(SchemaClass([PcSchema(w, (LitAtom(m),))
                                    for m in tails],
                                   symbol=h.minimal_infinite_emitters()[0][0]))
    return MapPresentation(g, h, classes, f"anchored window-{w} mirror")


def _walked(fn):
    try:
        return fn()
    except MapError as err:
        return type(err).__name__, str(err)


def _stuttered(x):
    """x with its first coordinate said three more times, so that windows
    repeat within one walk."""
    if length(x) == 0:
        return x
    a = prefix(x, 1)
    if isinstance(x, FinitePoint):
        return FinitePoint(a * 3 + x.path, x.tail)
    return PeriodicPoint(a * 3 + x.preamble, x.cycle)


@CAPS
def test_window_walk_equals_the_reference_walk(cap, monkeypatch):
    _cap(monkeypatch, cap)
    rng = random.Random(67)
    compared = emitters = 0
    windows = set()
    for tag in range(8):
        g = random_family_graph(rng, tag)
        h = mirror_map(g).target
        pool = sampling.point_pool(g, random.Random(tag), 16)
        pool += [_stuttered(x) for x in pool]
        maps = [_anchored_window_map(g, w) for w in range(4)] + \
            [_window_map(g, h, w) for w in (1, 2)]
        for phi in maps:
            windows.add(phi.window)
            asked = _asking(phi)
            for x in pool:
                for k in (2, 0, 1):  # shifts first, then x, then a repeat
                    y = shift_n(x, k)
                    steps = _orbit_closure(y)[1]
                    got = _walked(lambda: _window_symbols(phi, y, steps))
                    want = _walked(lambda: _reference_walk(
                        _fresh(phi), y)[0][:steps])
                    assert got == want, (phi, y)
                    compared += 1
                    emitters += isinstance(got, list) and any(
                        isinstance(s, MinimalEmitter) for s in got)
            held = any(isinstance(s, MinimalEmitter)
                       for s in phi.table.values())
            # the flag outlives an emptied table's emitters
            assert phi.table.emitted == held or \
                (cap is not None and phi.table.emitted)
            if cap is None:
                # a stored window was asked for once, also when it repeats
                # within one walk; a refused one is asked again next time
                stored = [key for key in (prefix(y, phi.window)
                                          for y in asked)
                          if key in phi.table]
                assert len(stored) == len(set(stored)), phi
    assert windows == {0, 1, 2, 3}
    assert compared > 2000 and emitters > 100


# -- canonical forms -------------------------------------------------------------


def _primitive_by_divisors(cycle):
    for p in range(1, len(cycle) + 1):
        if len(cycle) % p == 0 and cycle == cycle[:p] * (len(cycle) // p):
            return cycle[:p]
    return cycle


def test_primitive_equals_the_divisor_loop():
    rng = random.Random(71)
    powers = 0
    for _ in range(3000):
        base = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        cycle = base * rng.choice((1, 1, 2, 3)) if rng.random() < 0.6 else \
            tuple(rng.choice("ab") for _ in range(rng.randint(1, 9)))
        assert _primitive(cycle) == _primitive_by_divisors(cycle), cycle
        powers += _primitive(cycle) != cycle
    assert powers > 300


def _agreement_by_loop(x, goal):
    head = prefix(x, min(len(goal), length(x)))
    for k, sym in enumerate(head):
        if sym != goal[k]:
            return k
    return len(head)


def test_agreement_equals_its_loop():
    rng = random.Random(73)
    tail = FIXTURES[0].points["zero"].tail
    full = 0
    for _ in range(3000):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        x = FinitePoint(word, tail) if rng.random() < 0.3 else \
            PeriodicPoint(word, tuple(rng.choice("ab")
                                      for _ in range(rng.randint(1, 3))))
        goal = prefix(x, rng.randint(0, 8)) if rng.random() < 0.5 else \
            tuple(rng.choice("ab") for _ in range(rng.randint(0, 8)))
        got = _agreement(x, goal)
        assert got == _agreement_by_loop(x, goal), (x, goal)
        full += got == len(goal)
    assert full > 500


# -- the constant strategy ---------------------------------------------------------


def _fixture_images():
    """(map, point, image) for the fixtures' maps on their pools, where the
    image evaluates."""
    for fx in FIXTURES:
        for phi in fx.maps.values():
            if phi.source is not fx.source:
                continue
            for x in fx.sample_pool(20, seed=7):
                try:
                    yield phi, x, eval_map(phi, x).resolved
                except MapError:
                    continue


@pytest.mark.parametrize("n_max", [1, 2, 12])
def test_a_constant_sequence_converges_at_every_pool_point(n_max):
    bounds = ConvergenceBounds(m_max=4, n_max=n_max)
    lengths = []
    for phi, x, y in _fixture_images():
        for g, z in ((phi.source, x), (phi.target, y)):
            v = check_convergence(g, lambda n, z=z: z, z, bounds)
            assert v.status == HOLDS, (z, v)
            lengths.append(length(z))
    infinite = lengths.count(float("inf"))
    assert infinite > 20 and len(lengths) - infinite > 20


def test_probe_notes_begin_with_the_constant_strategy():
    probes = 0
    for phi, x, _ in _fixture_images():
        v = probe_continuity(phi, x, ProbeBounds(
            n_max=8, conv=ConvergenceBounds(m_max=4, n_max=12)))
        if v.status != FAILS:  # a failure reports its strategy alone
            assert v.detail.startswith("constant: images converge"), v
            probes += 1
    assert probes > 40


# -- bounds ----------------------------------------------------------------------


@pytest.mark.parametrize("kw", [{"n_max": 0}, {"m_max": 0}, {"n_max": -3},
                                {"m_max": -1, "n_max": 4}])
def test_convergence_bounds_that_bound_nothing_are_refused(kw):
    # n_max = 0 once made probe_continuity raise IndexError at fixture a's
    # f3, and m_max = 0 made every convergence check hold unchecked
    with pytest.raises(PointError, match="at least 1"):
        ConvergenceBounds(**kw)


def test_probe_bounds_need_a_term():
    with pytest.raises(MapError, match="at least 1"):
        ProbeBounds(n_max=0)
    assert ProbeBounds(n_max=1).n_max == 1
    assert ConvergenceBounds(m_max=1, n_max=1).as_dict()["m_max"] == 1
