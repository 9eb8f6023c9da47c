"""What the construction, the map or the graph already fixes is done once,
and each cut leaves every answer as it was.

- A probe at an infinite point skips the inward convergence check when
  ``m_max <= n_max``: term n of every approach strategy agrees with the
  point on at least n coordinates.
- Each map keeps one table for all of its evaluations, probes or not:
  window symbols when it has a window, whole images when it has none.
- A witness point of a block of edges is its last edge's witness behind
  the block's other edges, read from a per-graph memo.

Also here: an approach term the map cannot place, and the probe bound
``n_max`` in a probe's echoed bounds."""

import random
from collections import Counter

import pytest

from helpers_random import identity_map, mirror_map, random_family_graph
from test_codes import _asking, _fresh
from test_probe_memo import _random_window_maps
from ultrashift import codes, dsl, graphs, sampling
from ultrashift.codes import (
    MapError,
    ProbeBounds,
    RuleMap,
    _approach_strategies,
    _problems,
    _try_point,
    eval_resolved,
    probe_continuity,
)
from ultrashift.corpus import build_fixture
from ultrashift.graphs import EdgeRef, MinimalEmitter
from ultrashift.intsets import INFINITE
from ultrashift.paths import Block
from ultrashift.points import (
    ConvergenceBounds,
    FinitePoint,
    RepeatFamily,
    _agreement,
    block_witness,
    check_convergence,
    length,
    prefix,
)

FIXTURES = [build_fixture(name) for name in "abcd"]
CRITERION_8 = ProbeBounds(n_max=8, conv=ConvergenceBounds(m_max=4, n_max=12))


def _record(v) -> tuple:
    return v.status, v.detail, str(v.witness), v.exact, v.bounds


def _fixture_cases():
    """(map, points): each map of fixtures a-d on its source, at its named
    points and a sample pool."""
    for fx in FIXTURES:
        points = list(fx.points.values()) + fx.sample_pool(20, seed=3)
        for phi in fx.maps.values():
            if phi.source is fx.source:
                yield phi, points


def _random_cases(seed: int, graphs_: int, size: int):
    """(map, pool): mirror and identity maps of seeded random family
    graphs, each with a seeded pool of its source."""
    rng = random.Random(seed)
    for tag in range(graphs_):
        g = random_family_graph(rng, tag)
        pool = sampling.point_pool(g, random.Random(tag), size)
        for phi in (mirror_map(g), identity_map(g)):
            yield phi, pool


# -- inward convergence by construction ------------------------------------------


def _infinite_points():
    """(graph, point) for the infinite points of fixtures a-d, named and
    sampled, and of seeded random family graphs' pools."""
    for fx in FIXTURES:
        for x in list(fx.points.values()) + fx.sample_pool(30, seed=3):
            if length(x) == INFINITE:
                yield fx.source, x
    rng = random.Random(71)
    for tag in range(10):
        g = random_family_graph(rng, tag)
        for x in sampling.point_pool(g, random.Random(tag), 24):
            if length(x) == INFINITE:
                yield g, x


def test_every_approach_term_agrees_with_x_on_n_coordinates():
    kinds = Counter()
    for g, x in _infinite_points():
        kinds["preamble" if x.preamble else "no preamble"] += 1
        for label, seq in _approach_strategies(g, x, ProbeBounds()):
            at = seq.at if isinstance(seq, RepeatFamily) else seq
            for n in range(1, 13):
                term = at(n)
                assert _agreement(term, prefix(x, n)) >= n, (label, x, n)
                if term != x:  # the strategy found a point apart from x
                    kinds["finite" if isinstance(term, FinitePoint)
                          else label.split(" to ")[0]] += 1
    assert kinds["preamble"] > 20 and kinds["no preamble"] > 20
    assert kinds["swerve after a growing prefix"] > 100
    assert kinds["swerve"] > 100  # "swerve to e after whole cycles"
    assert kinds["finite"] > 100  # truncations to finite points


def _forced_probe(phi, x, bounds):
    """The probe's verdict read with the inward check run on every
    strategy: (status, detail) when no strategy fails, else (status, the
    failing strategy)."""
    g = phi.source
    target = eval_resolved(phi, x)
    worst, notes = "holds", ["constant: images converge"]
    for label, seq in _approach_strategies(g, x, bounds):
        if check_convergence(g, seq, x, bounds.conv).status != "holds":
            continue
        at = seq.at if isinstance(seq, RepeatFamily) else seq
        out = check_convergence(phi.target,
                                lambda n, at=at: eval_resolved(phi, at(n)),
                                target, bounds.conv)
        if out.status == "fails":
            return "fails", label
        if out.status == "unknown":
            worst = "unknown"
            notes.append(f"{label}: undecided")
        else:
            notes.append(f"{label}: images converge"
                         + (" (exact)" if out.exact else ""))
    return worst, "; ".join(notes)


def _inward_calls(monkeypatch):
    """Record the inward convergence checks: those whose target is the
    probed point itself (the outward check's target is its image)."""
    calls = []
    check = codes.check_convergence

    def recording(g, seq, target, bounds=None):
        calls.append(target)
        return check(g, seq, target, bounds)
    monkeypatch.setattr(codes, "check_convergence", recording)
    return calls


@pytest.mark.parametrize("conv", [ConvergenceBounds(m_max=8, n_max=4),
                                  ConvergenceBounds(m_max=4, n_max=12),
                                  ConvergenceBounds(m_max=3, n_max=3)],
                         ids=str)
def test_a_probe_equals_the_probe_with_the_inward_check_forced(
        monkeypatch, conv):
    bounds = ProbeBounds(n_max=8, conv=conv)
    calls = _inward_calls(monkeypatch)
    compared = dropped = 0
    cases = list(_fixture_cases()) + list(_random_cases(29, 4, 12))
    for phi, points in cases:
        for x in points:
            try:
                want = _forced_probe(phi, x, bounds)
            except MapError:
                continue
            calls.clear()
            v = probe_continuity(phi, x, bounds)
            got = (v.status, v.witness["strategy"] if v.status == "fails"
                   else v.detail)
            assert got == want, (phi, x)
            inward = [t for t in calls if t is x]
            strategies = _approach_strategies(phi.source, x, bounds)
            if length(x) == INFINITE and conv.m_max <= conv.n_max:
                assert inward == []
            elif v.status != "fails":  # a failure ends the loop early
                assert len(inward) == len(strategies), (phi, x)
            compared += 1
            dropped += v.status != "fails" and \
                len(v.detail.split("; ")) < len(strategies) + 1
    assert compared > 200
    if conv.m_max > conv.n_max:
        # the check ran, and left strategies out: skipping it would not do
        assert dropped > 20


# -- one window table per map ----------------------------------------------------


def _probe_all(phi, points, bounds=CRITERION_8) -> list:
    out = []
    for x in points:
        out.append(_record(probe_continuity(phi, x, bounds)))
    return out


def test_window_table_entries_are_the_maps_symbols():
    checked = emitters = 0
    for phi, pool in _random_window_maps(47, 4):
        _probe_all(phi, pool[:5])
        for key, sym in phi.table.items():
            y = block_witness(phi.source, Block(key)) if key else pool[0]
            assert prefix(y, phi.window) == key
            assert _fresh(phi).symbol_at(y) == sym, (phi, key)
            checked += 1
            emitters += isinstance(sym, MinimalEmitter)
        assert phi.table.emitted == any(
            isinstance(s, MinimalEmitter) for s in phi.table.values())
    assert checked > 200 and emitters > 0


def _refused(phi, y) -> bool:
    try:
        phi.symbol_at(y)
    except MapError:
        return True
    return False


def test_a_second_probe_asks_only_for_windows_it_has_not_seen():
    asked_anew = 0
    for phi, pool in list(_random_window_maps(53, 3)) + [
            (fx.maps["phi_finite"], list(fx.points.values()))
            for fx in FIXTURES[2:3]]:
        want = _probe_all(_fresh(phi), pool[:6])
        asked = _asking(phi)
        first = _probe_all(phi, pool[:3])
        seen = set(phi.table)
        asked.clear()
        # the same points again ask only for windows that no class takes
        assert _probe_all(phi, pool[:3]) == first
        assert all(prefix(y, phi.window) not in seen and
                   _refused(_fresh(phi), y) for y in asked), phi
        seen = set(phi.table)
        asked.clear()
        assert first + _probe_all(phi, pool[3:6]) == want, phi
        assert all(prefix(y, phi.window) not in seen for y in asked), phi
        asked_anew += len(asked)
    assert asked_anew > 0


def test_a_table_is_emptied_at_the_cap(monkeypatch):
    fx = FIXTURES[0]
    # window maps, then maps without a window, which store whole images
    cases = list(_random_window_maps(59, 2)) + [
        (fx.phi, list(fx.points.values())),
        (RuleMap(fx.source, fx.target, fx.phi.symbol_at, "rule"),
         list(fx.points.values()))]
    want = [_probe_all(_fresh(phi), pool[:6]) for phi, pool in cases]
    monkeypatch.setattr(graphs, "EDGE_MEMO_CAP", 3)
    for (phi, pool), expected in zip(cases, want):
        phi = _fresh(phi)
        asked = _asking(phi)
        sizes = []
        store = phi.table.store

        def storing(key, value, store=store, table=phi.table):
            got = store(key, value)
            sizes.append(len(table))
            return got
        phi.table.store = storing
        assert _probe_all(phi, pool[:6]) == expected, phi
        keys = {y if phi.window is None else prefix(y, phi.window)
                for y in asked}
        assert len(keys) > 3
        assert sizes and max(sizes) <= 3


# -- a block's witness through its last edge -------------------------------------


def _reference_point(g, syms):
    w = block_witness(g, Block(tuple(syms)), 8)
    return None if w is None or _problems(g, w) else w


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
        blocks += [(EdgeRef("a", 0),) * k + (EdgeRef(e, 0),)
                   for k in (0, 1, 2) for e in "sta"] if g is SINK else []
        for warm in (False, True):  # a cold adjacent memo, then a warm one
            for syms in blocks:
                if warm:
                    for pair in zip(syms, syms[1:]):
                        if not any(isinstance(e, MinimalEmitter)
                                   for e in pair):
                            g.adjacent(*pair)
                want = _reference_point(g, syms)
                known = not isinstance(syms[-1], MinimalEmitter) and \
                    len(syms) > 1 and g.known_adjacent(syms)
                assert _try_point(g, syms) == want, (g.name, syms)
                factored += known
                nothing += known and want is None
    assert factored > 200 and nothing >= 2
    assert (EdgeRef("s", 0),) in SINK._memos["_edge_point"]


# -- an approach term the map cannot place; the probe's bound --------------------


def _refusing(fx, edges):
    """Fixture a's map, refusing every point that holds one of the edges
    among its first twelve coordinates."""
    def rule(y):
        hit = [e for e in edges if e in prefix(y, 12)]
        if hit:
            raise MapError(f"{hit[0]} refused")
        return fx.phi.symbol_at(y)
    return RuleMap(fx.source, fx.target, rule, "refusing")


def test_a_term_that_cannot_be_placed_leaves_its_strategy_undecided():
    fx = FIXTURES[0]
    x = fx.points["all_d"]
    f1, f2 = EdgeRef("f", 1), EdgeRef("f", 2)
    v = probe_continuity(_refusing(fx, [f1, f2]), x)
    term = "(d[0] f[1] (d[0])* ...)"
    assert v.status == "unknown" and str(v.witness) == term
    assert v.detail.split("; ") == [
        "constant: images converge",
        f"swerve to f[1] after whole cycles: image of {term} cannot be "
        "evaluated: f[1] refused",
        "swerve to f[2] after whole cycles: image of "
        "(d[0] f[2] (d[0])* ...) cannot be evaluated: f[2] refused",
        "truncate to finite points: images converge"]
    # a later strategy's failure still decides
    v = probe_continuity(_refusing(fx, [f1]), x)
    assert v.status == "fails"
    assert v.witness["strategy"] == "swerve to f[2] after whole cycles"


def test_a_failure_shows_only_terms_the_check_read():
    # with n_max = 1 the check reads term 1 alone; term 2, which the map
    # refuses, stays out of the witness
    fx = FIXTURES[0]
    d, f1 = EdgeRef("d", 0), EdgeRef("f", 1)

    def rule(y):
        if prefix(y, 2) == (d, d) and f1 in prefix(y, 4):
            raise MapError("refused")
        return fx.phi.symbol_at(y)
    phi = RuleMap(fx.source, fx.target, rule, "refusing")
    x = fx.points["all_d"]
    v = probe_continuity(phi, x, ProbeBounds(
        conv=ConvergenceBounds(m_max=1, n_max=1)))
    assert v.status == "fails"
    assert [str(t) for t in v.witness["terms"]] == ["(d[0] f[1] (d[0])* ...)"]
    v = probe_continuity(fx.phi, x, ProbeBounds(
        conv=ConvergenceBounds(m_max=1, n_max=2)))
    assert [str(t) for t in v.witness["terms"]] == [
        "(d[0] f[1] (d[0])* ...)", "(d[0] d[0] f[1] (d[0])* ...)"]
    v = probe_continuity(fx.phi, x)
    assert len(v.witness["terms"]) == 3


def test_probe_bounds_echo_the_probe_n_max_under_its_own_key():
    got = ProbeBounds(n_max=1).as_dict()
    assert got["probe_n_max"] == 1 and got["n_max"] == 32
    v = probe_continuity(FIXTURES[3].phi, FIXTURES[3].points["all_e0"],
                         CRITERION_8)
    assert (v.bounds["probe_n_max"], v.bounds["n_max"]) == (8, 12)
