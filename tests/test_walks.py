"""Each walk that reads a point, a path or a sequence's terms in one pass
gives the answer of the item-by-item walk it replaced.

- The window walk (``codes._window_symbols``): a map with a window looks
  every step's window up in its table at once, and evaluation on top of
  it equals ``helpers_oracle.reference_eval``, whether the table is cold,
  warm or emptied every third answer.  The window is the smallest one the
  first image symbol depends on.  ``symbol_at`` and the window walk give
  the partition's answer: the one class a point matches, or the list of
  the classes it matches when that is not one.
- ``validate_point`` reads adjacency from the graph's memo in one pass.
- Canonical forms: a cycle's primitive root, a point's agreement depth
  with a word, and convergence read from each term's agreement depth.
- A block's witness point is its last edge's witness behind the block's
  other edges."""

import functools
import random

import pytest

from helpers_graphs import finite_cycle_graph
from helpers_maps import localizable, random_window_maps, window_map
from helpers_oracle import (CAPS, apply_cap, asking, fresh, outcome,
                            reference_eval, reference_walk)
from helpers_random import identity_map, mirror_map, random_family_graph
from ultrashift import dsl, graphs, sampling
from ultrashift.codes import (MapError, MapPresentation, OracleClass,
                              PartitionError, RuleMap, SchemaClass,
                              _try_point, _window_symbols)
from ultrashift.corpus import build_fixture, d, e, f, registry
from ultrashift.definable import LitAtom, PcSchema, RepAtom, VarAtom
from ultrashift.graphs import EdgeRef, MinimalEmitter
from ultrashift.intsets import IndexSet
from ultrashift.paths import Block
from ultrashift.points import (ConvergenceBounds, FinitePoint,
                               PeriodicPoint, RepeatFamily, _agreement,
                               _primitive, block_witness, check_convergence,
                               coordinate, hard_problems, length,
                               orbit_closure, prefix, shift_n, validate_point)

FIXTURES = [build_fixture(name) for name in "abcd"]
FA = FIXTURES[0]
GA, HA = FA.source, FA.target
A_W = FA.points["zero"].tail
B_V = next(c.symbol for c in FA.phi.classes if isinstance(c, OracleClass))


# -- the window walk -------------------------------------------------------------


def _walked(fn):
    try:
        return fn()
    except MapError as err:
        return type(err).__name__, str(err)


def _compare(phi, points, shifts) -> tuple:
    """Evaluates each shift of each point, in order, with a table of its
    own, and walks its window symbols (when the map has a window) with
    another, each compared with the reference.  The symbols of a walk
    whose image the map refuses are compared too.  (eval_map's answers,
    the walked symbols)"""
    ref, walker = fresh(phi), fresh(phi)
    # the reference walks each orbit twice, for its symbols and its image,
    # asking symbol_at of each point once
    ref.symbol_at = functools.cache(ref.symbol_at)
    answers, walks = [], []
    for x in points:
        for k in shifts:
            y = shift_n(x, k)
            want = _walked(lambda: reference_walk(ref, y))
            m, steps = orbit_closure(y)
            if len(want) == 3:  # the walk went through; not an error
                assert want[1:] == (steps, m), y
                want = want[0][:steps]
            if phi.window is not None:
                walks.append(_walked(
                    lambda: _window_symbols(walker, y, steps)))
                assert walks[-1] == want, (phi, y)
            answers.append(outcome(phi, y))
            assert answers[-1] == reference_eval(ref, y), (phi, y)
    return answers, walks


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


def _stuttered(x):
    """x with its first coordinate said three more times, so that windows
    repeat within one walk."""
    if length(x) == 0:
        return x
    a = prefix(x, 1)
    if isinstance(x, FinitePoint):
        return FinitePoint(a * 3 + x.path, x.tail)
    return PeriodicPoint(a * 3 + x.preamble, x.cycle)


def _window_cases():
    """(map, points): the window maps of ``random_window_maps``, with
    anchored mirrors of windows 0 to 3 and the mirror broken two ways on
    the same graphs, each at its pool and the pool stuttered; then the
    fixtures' maps with a window, at a pool and their named points."""
    done = set()  # the graphs whose own maps are yielded
    for phi, pool in random_window_maps(41, 6):
        g, pool = phi.source, pool + [_stuttered(x) for x in pool[:6]]
        yield phi, pool
        if g in done:
            continue
        done.add(g)
        mirror = mirror_map(g)
        # the classes twice over, so every point matches two classes, and
        # all but the first, so the first class's points match none
        broken = [MapPresentation(g, mirror.target, mirror.classes * 2),
                  MapPresentation(g, mirror.target, mirror.classes[1:])]
        for psi in [_anchored_window_map(g, w) for w in range(4)] + broken:
            yield psi, pool
    for fx in FIXTURES:
        for phi in fx.maps.values():
            if phi.window is not None:
                pool = sampling.point_pool(phi.source, random.Random(2), 30)
                if phi.source is fx.source:
                    pool += list(fx.points.values())
                yield phi, pool


@CAPS
def test_window_walk_equals_the_reference(cap, monkeypatch):
    apply_cap(monkeypatch, cap)
    compared = emitters = 0
    kinds, windows = set(), set()
    for phi, pool in _window_cases():
        windows.add(phi.window)
        phi = fresh(phi)
        asked = asking(phi)
        # shifts first, as the orbits of a probe's terms overlap; x twice,
        # the second time from a warm table
        answers, walks = _compare(phi, pool, (2, 1, 0, 0))
        compared += len(answers)
        emitters += sum(isinstance(syms, list) and any(
            isinstance(s, MinimalEmitter) for s in syms) for syms in walks)
        # an image, a refusal by its kind, or an error of symbol_at
        kinds |= {a if isinstance(a, str) else a[0] if len(a) == 3 else
                  "image" for a in answers}
        if cap is None:
            # a stored window was asked for once, also when it repeats
            # within one walk; a refused one is asked again next time
            stored = [key for key in (prefix(y, phi.window) for y in asked)
                      if key in phi.table]
            assert len(stored) == len(set(stored)), phi
    assert windows == {0, 1, 2, 3}
    assert {"image", "target", "error"} <= kinds
    assert compared > 4000 and emitters > 100


def _class_walk(phi, x):
    """The partition's answer at x, read off every class in class order:
    the symbol, or the classes a PartitionError lists."""
    found = [(c, sym) for c in phi.classes for sym in c.symbols_for(x)]
    if len(found) != 1:
        return "partition", [str(c) for c, _ in found]
    return "symbol", found[0][1]


def _partition_answer(symbol_at, x):
    try:
        return "symbol", symbol_at(x)
    except PartitionError as err:
        return "partition", err.matches


def _assert_class_walk_answers(phi, points) -> int:
    """symbol_at gives the class walk's answer at each shift of each point,
    and so does the window walk of a map with a window, from a cold table
    and then a warm one."""
    phi = fresh(phi)
    tabled = None if phi.window is None else \
        (lambda y: _window_symbols(phi, y, 1)[0])
    points = [shift_n(x, k) for x in points for k in (0, 1, 2)]
    for _ in range(2):
        for y in points:
            want = _class_walk(phi, y)
            assert _partition_answer(phi.symbol_at, y) == want, (phi, y)
            if tabled is not None:
                assert _partition_answer(tabled, y) == want, (phi, y)
    return len(points)


def test_window_keys_match_a_class_walk_on_random_maps():
    rng = random.Random(23)
    compared = 0
    for tag in range(10):
        g = random_family_graph(rng, tag)
        pool = sampling.point_pool(g, random.Random(tag), 30)
        for phi in (mirror_map(g), identity_map(g)):
            assert phi.window == 1
            # the classes twice over, and all but the first
            for psi in (phi, MapPresentation(g, phi.target, phi.classes * 2),
                        MapPresentation(g, phi.target, phi.classes[1:])):
                compared += _assert_class_walk_answers(psi, pool)
    assert compared > 1000


def test_window_keys_match_a_class_walk_on_fixture_maps():
    compared = windows = 0
    for fx in FIXTURES:
        for phi in fx.maps.values():
            if not isinstance(phi, MapPresentation):
                continue
            pool = sampling.point_pool(phi.source, random.Random(4), 40)
            if phi.source is fx.source:
                pool += list(fx.points.values())
            compared += _assert_class_walk_answers(phi, pool)
            windows += phi.window is not None
    assert compared > 500
    assert windows >= 2


def test_every_first_symbol_kind_answers_like_the_reference():
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
    pool = sampling.point_pool(GA, random.Random(6), 40)
    for k in range(len(classes)):
        # each class alone, then with those before it
        for phi in (MapPresentation(GA, HA, classes[k:k + 1]),
                    MapPresentation(GA, HA, classes[:k + 1])):
            _compare(phi, pool, (0, 1, 2))


def test_window_is_the_smallest_localizing_window():
    for g in (finite_cycle_graph(3), finite_cycle_graph(4)):
        h = mirror_map(g).target
        maps = [mirror_map(g), identity_map(g)] + \
            [window_map(g, h, w) for w in (1, 2, 3)]
        for phi in maps:
            smallest = next(w for w in (1, 2, 3) if localizable(phi, g, w))
            assert phi.window == smallest, (g.name, phi.label)
            _compare(phi, sampling.point_pool(g, random.Random(11), 20),
                     (0, 1, 2))


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


# -- adjacency ------------------------------------------------------------------


def _reference_problems(g, x):
    """validate_point's answer, walked pair by pair through ``adjacent``."""
    emitters, complete = g.minimal_infinite_emitters()
    if isinstance(x, FinitePoint):
        edges = list(x.path)
    else:
        edges = list(x.preamble) + list(x.cycle) + [x.cycle[0]]
    for edge in edges:
        if not g.has_edge(edge):
            return [f"edge {edge} does not exist"]
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
    """(graph, pool) over the fixtures' graphs and seeded random family
    graphs."""
    rng = random.Random(61)
    cases = [(g, sampling.point_pool(g, random.Random(3), 25))
             for fx in FIXTURES for g in (fx.source, fx.target)]
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
    es = [EdgeRef("e", k) for k in range(3)]
    g._memos.clear()
    assert not g.known_adjacent([es[0], es[0]])  # not asked yet
    assert g.adjacent(es[0], es[0]) and not g.adjacent(es[1], es[2])
    assert g.known_adjacent([es[0], es[0], es[0]])
    assert not g.known_adjacent([es[0], es[0], es[1], es[2]])
    assert g.known_adjacent([es[1]]) and g.known_adjacent(())


# -- canonical forms and agreement depths ----------------------------------------


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
    full = 0
    for _ in range(3000):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        x = FinitePoint(word, A_W) if rng.random() < 0.3 else \
            PeriodicPoint(word, tuple(rng.choice("ab")
                                      for _ in range(rng.randint(1, 3))))
        goal = prefix(x, rng.randint(0, 8)) if rng.random() < 0.5 else \
            tuple(rng.choice("ab") for _ in range(rng.randint(0, 8)))
        got = _agreement(x, goal)
        assert got == _agreement_by_loop(x, goal), (x, goal)
        full += got == len(goal)
    assert full > 500


def _definition(seq, target, bounds):
    """check_convergence at an infinite target as (status, detail, witness,
    exact), with "term n agrees to depth M" read afresh for every n and M:
    the term is at least M long and its coordinates 1..M are the
    target's."""
    at = seq.at if isinstance(seq, RepeatFamily) else seq
    n_max, half = bounds.n_max, bounds.n_max // 2
    status, bits, exact = "holds", [], isinstance(seq, RepeatFamily)
    for M in range(1, bounds.m_max + 1):
        name = f"prefix agreement to depth {M}"
        ok = [length(at(k)) >= M and all(
            coordinate(at(k), i) == coordinate(target, i)
            for i in range(1, M + 1)) for k in range(1, n_max + 1)]
        stable = len(set(ok[half:])) == 1
        if not any(ok[half:]):
            bits.append(f"{name}: fails for every large sampled n")
            return ("fails", "; ".join(bits), (n_max, at(n_max), name),
                    exact and stable)
        if not ok[-1]:
            status = "unknown"
            bits.append(f"{name}: still failing at n={n_max}")
            exact = False
        else:
            last = max((i for i, good in enumerate(ok) if not good),
                       default=-1)
            bits.append(f"{name}: satisfied for n>{last + 1}")
            exact = exact and stable
    return status, "; ".join(bits), None, exact


def _verdict(g, seq, target, bounds):
    v = check_convergence(g, seq, target, bounds)
    return v.status, v.detail, v.witness, v.exact


def _sequences(x, other):
    """Approach sequences to x: repeat families, swerves and finite
    truncations."""
    out = [seq for seq in registry().values() if isinstance(seq, RepeatFamily)]
    out.append(lambda k: x)
    out.append(lambda k: other)
    out.append(lambda k: PeriodicPoint(prefix(x, k), other.cycle))
    out.append(lambda k: FinitePoint(prefix(x, k // 2), A_W))
    return out


def test_lazy_agreement_equals_the_per_depth_condition():
    compared = 0
    bounds = ConvergenceBounds(m_max=5, n_max=12)
    for fx in FIXTURES:
        targets = [p for p in fx.points.values() if length(p) != 0
                   and isinstance(p, PeriodicPoint)]
        for x in targets:
            other = next(p for p in targets if p != x) if len(targets) > 1 \
                else PeriodicPoint((), (d(),))
            for seq in _sequences(x, other):
                assert _verdict(fx.source, seq, x, bounds) == \
                    _definition(seq, x, bounds), (x, seq)
                compared += 1
    assert compared > 50


def test_agreement_depths_read_the_definition_in_each_case():
    x, other = PeriodicPoint((), (d(),)), PeriodicPoint((), (f(1),))
    bounds = ConvergenceBounds(m_max=4, n_max=10)
    cases = [
        # terms shorter than M: the first terms are shorter than m_max
        (lambda k: FinitePoint((d(),) * (k // 2), A_W), "holds", None,
         False),
        # every term fails at M = 1: the witness is the term at n_max
        (lambda k: other, "fails",
         (10, other, "prefix agreement to depth 1"), False),
        # agreement ends only at the last term: undecided
        (lambda k: x if k < 10 else other, "unknown", None, False),
        (lambda k: PeriodicPoint((d(),) * k, (f(1),)), "holds", None, False),
        # repeat families certify exactly, converging or not
        (RepeatFamily((d(),), other), "holds", None, True),
        (RepeatFamily((f(1),), x), "fails",
         (10, RepeatFamily((f(1),), x).at(10),
          "prefix agreement to depth 1"), True),
        (RepeatFamily((d(),), FinitePoint((), A_W)), "holds", None, True),
    ]
    for seq, status, witness, exact in cases:
        got = _verdict(GA, seq, x, bounds)
        assert got == _definition(seq, x, bounds), seq
        assert got[0] == status and got[2] == witness and got[3] == exact
    assert length(cases[0][0](1)) < bounds.m_max


# -- a block's witness through its last edge -------------------------------------


def _reference_point(g, syms):
    w = block_witness(g, Block(tuple(syms)), 8)
    return None if w is None or hard_problems(g, w) else w


SINK = dsl.parse("""ultragraph S {
  vertices v over [0..3]
  edges a over [0..0] { source v[0] range v[0], v[1] }
  edges s over [0..0] { source v[1] range v[2] }
  edges t over [0..0] { source v[1] range v[3] }
}""").graphs["S"]


def _walk(g, rng, n):
    """A path of up to n edges along sampled successors, from a sampled
    first edge."""
    first = g.all_edges().sample(12)
    path = [EdgeRef(*rng.choice(first))]
    for _ in range(n - 1):
        nxt = g.successor_sample(path[-1], 5)
        if not nxt:
            break
        path.append(rng.choice(nxt))
    return tuple(path)


def _blocks(g, rng):
    """Random blocks of g: paths, paths with a bad pair in the head, paths
    ending in or holding an emitter symbol."""
    emitters = g.minimal_infinite_emitters()[0]
    edges = [EdgeRef(*p) for p in g.all_edges().sample(12)]
    for _ in range(30):
        path = _walk(g, rng, rng.randint(1, 4))
        yield path
        stranger = rng.choice(edges)
        yield (stranger,) + path
        if len(path) > 1:
            yield path[:1] + (stranger,) + path[1:]
        if emitters:
            m = rng.choice(emitters)
            yield path + (m,)
            yield path[:1] + (m,) + path[1:]
            yield (m,)


def test_factored_witness_equals_the_witness_built_in_full():
    rng = random.Random(83)
    cases = [SINK] + [random_family_graph(rng, tag) for tag in range(8)]
    factored = nothing = 0
    for g in cases:
        blocks = list(_blocks(g, rng))
        blocks += [(EdgeRef("a", 0),) * k + (EdgeRef(name, 0),)
                   for k in (0, 1, 2) for name in "sta"] if g is SINK else []
        for warm in (False, True):  # a cold adjacent memo, then a warm one
            for syms in blocks:
                if warm:
                    for pair in zip(syms, syms[1:]):
                        if not any(isinstance(s, MinimalEmitter)
                                   for s in pair):
                            g.adjacent(*pair)
                want = _reference_point(g, syms)
                known = not isinstance(syms[-1], MinimalEmitter) and \
                    len(syms) > 1 and g.known_adjacent(syms)
                assert _try_point(g, syms) == want, (g.name, syms)
                factored += known
                nothing += known and want is None
    assert factored > 200 and nothing >= 2
    assert (EdgeRef("s", 0),) in SINK._memos["_edge_point"]
