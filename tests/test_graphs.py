"""Ultragraph core: validation, emitted edges, algebra membership, minimal
infinite emitters.  Expected values are checked against brute force on
finite graphs and against hand-derived facts on the fixture graphs."""

import itertools
import random

import pytest

from ultrashift.corpus import (
    f,
    graph_a_source,
    graph_b,
    graph_d_source,
    graph_d_target,
    graph_sinky,
    finite_cycle_graph,
)
from ultrashift import graphs
from ultrashift.definable import SchemaError, decompose_cylinder
from ultrashift.graphs import (
    EdgeFamily,
    EdgeRef,
    GraphError,
    RangeCase,
    SourceCase,
    Ultragraph,
    bounded_edges,
    validate_ultragraph,
)
from ultrashift.intsets import (
    INFINITE,
    IDENTITY_MAP,
    IndexSet,
    SymbolicSet,
    const_map,
    shift_map,
)
from ultrashift.paths import Ultrapath
from ultrashift.points import Cylinder

P = SymbolicSet.of(("w", IndexSet.at_most(-1)))
Q = SymbolicSet.of(("w", IndexSet.at_least(1)))


# -- validation ------------------------------------------------------------


def test_loop_graph_is_valid():
    report = validate_ultragraph(graph_a_source())
    assert report.valid


def test_sinky_graph_reports_sinks_symbolically():
    report = validate_ultragraph(graph_sinky())
    assert not report.valid
    assert report.sinks == SymbolicSet.of(("u", IndexSet.at_least(1)))
    assert report.empty_range_edges.is_empty()


def test_graph_d_target_is_valid():
    assert validate_ultragraph(graph_d_target()).valid
    assert validate_ultragraph(graph_d_source()).valid


def test_empty_range_detection():
    n = IndexSet.at_least(0)
    # atom u[k-5] escapes the domain for k < 5 and there is no constant part
    ef = EdgeFamily(
        "g", n,
        (SourceCase(n, "u", const_map(0)),),
        (RangeCase(n, atoms=(("u", shift_map(-5)),)),),
    )
    g = Ultragraph("Partial", {"u": n}, [ef])
    report = validate_ultragraph(g)
    assert report.empty_range_edges == SymbolicSet.of(
        ("g", IndexSet.between(0, 4)))


def test_guard_partition_is_enforced():
    n = IndexSet.at_least(0)
    # source guard misses n[0], so the guards do not cover the domain
    with pytest.raises(GraphError):
        Ultragraph("Bad", {"u": n}, [EdgeFamily(
            "g", n,
            (SourceCase(IndexSet.at_least(1), "u", const_map(0)),),
            (RangeCase(n, SymbolicSet.singleton("u", 0)),))])


# -- sources, ranges, emitted edges -----------------------------------------


def test_source_and_range_lookup():
    h = graph_d_target()
    assert h.source(f(-3)) == ("w", -3)
    assert h.range_of(f(-3)) == SymbolicSet.singleton("w", -2)
    assert h.range_of(f(-1)) == Q
    assert h.range_of(f(4)) == SymbolicSet.of(
        ("w", IndexSet.of(4)), ("w", IndexSet.at_most(-1)))


def test_emitted_edges_of_ray():
    h = graph_d_target()
    assert h.epsilon(P) == SymbolicSet.of(("f", IndexSet.at_most(-1)))


def test_emitted_edges_of_empty_set():
    assert graph_d_target().epsilon(SymbolicSet.empty()).is_empty()


def test_emitted_edges_single_vertex_grabs_all_loops():
    g = graph_a_source()
    got = g.epsilon(SymbolicSet.singleton("w", 0))
    assert got == g.all_edges()
    assert got.cardinality() == INFINITE


def test_epsilon_lattice_laws_on_injective_sources():
    h = graph_d_target()
    pairs = [
        (P, Q),
        (P, SymbolicSet.of(("w", IndexSet.between(-4, 2)))),
        (SymbolicSet.of(("w", IndexSet.of(-7, 3))), Q),
    ]
    for a, b in pairs:
        assert h.epsilon(a.union(b)) == h.epsilon(a).union(h.epsilon(b))
        assert h.epsilon(a.intersect(b)) == h.epsilon(a).intersect(h.epsilon(b))


def test_epsilon_union_law_on_constant_sources():
    g = graph_a_source()
    a = SymbolicSet.singleton("w", 0)
    b = SymbolicSet.empty()
    assert g.epsilon(a.union(b)) == g.epsilon(a).union(g.epsilon(b))


def test_ranges_union_is_exact():
    h = graph_d_target()
    edges = SymbolicSet.of(("f", IndexSet.of(-3, -1)))
    # r(f[-3]) = {w[-2]}, r(f[-1]) = Q
    assert h.ranges_union(edges) == SymbolicSet.of(
        ("w", IndexSet.of(-2)), ("w", IndexSet.at_least(1)))


# -- closure of range intersections ----------------------------------------


def test_closure_of_constant_loop_graph():
    g = graph_a_source()
    shapes, saturated = g.range_intersection_closure()
    assert saturated
    consts = {s.const for s in shapes if s.is_const()}
    assert consts == {SymbolicSet.singleton("w", 0)}


def test_closure_of_graph_d_source_contains_derived_core():
    g = graph_d_source()
    shapes, saturated = g.range_intersection_closure()
    assert saturated
    consts = {s.const for s in shapes if s.is_const()}
    assert SymbolicSet.singleton("v", 0) in consts
    assert SymbolicSet.of(("v", IndexSet.at_least(0))) in consts
    params = [s for s in shapes if not s.is_const()]
    assert any(s.const == SymbolicSet.singleton("v", 0)
               and s.atoms == (("v", IDENTITY_MAP),) for s in params)


def test_closure_discards_empty_intersections():
    n = IndexSet.between(0, 1)
    ef = EdgeFamily(
        "g", n,
        (SourceCase(n, "u", IDENTITY_MAP),),
        (RangeCase(IndexSet.of(0), SymbolicSet.singleton("u", 0)),
         RangeCase(IndexSet.of(1), SymbolicSet.singleton("u", 1))),
    )
    g = Ultragraph("Disjoint", {"u": n}, [ef])
    shapes, saturated = g.range_intersection_closure()
    assert saturated
    assert {s.const for s in shapes} == {
        SymbolicSet.singleton("u", 0), SymbolicSet.singleton("u", 1)}


# -- algebra membership -----------------------------------------------------


def test_finite_vertex_sets_are_members():
    g = graph_d_source()
    verdict, witness = g.is_in_g0(SymbolicSet.of(("v", IndexSet.of(0, 7))))
    assert verdict == "yes"
    cores, rest = witness
    assert rest.subset_of(SymbolicSet.of(("v", IndexSet.of(0, 7))))


def test_range_itself_is_a_member_with_witness():
    h = graph_d_target()
    verdict, witness = h.is_in_g0(Q)
    assert verdict == "yes"
    cores, rest = witness
    assert rest.is_empty()
    assert any(core == Q for core, _ in cores)


def test_punctured_ray_is_rejected():
    h = graph_d_target()
    punctured = P.difference(SymbolicSet.singleton("w", -2))
    verdict, reason = h.is_in_g0(punctured)
    assert verdict == "no"


def test_empty_set_is_not_a_member():
    assert graph_d_target().is_in_g0(SymbolicSet.empty())[0] == "no"


def brute_force_g0(g):
    """Closure of singletons and ranges under union/nonempty intersection,
    for finite graphs only."""
    base = {frozenset([v]) for v in g.all_vertices().members()}
    for fam, k in g.all_edges().members():
        base.add(frozenset(g.range_of(EdgeRef(fam, k)).members()))
    closure = set(base)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(closure), 2):
            for cand in (a | b, a & b):
                if cand and cand not in closure:
                    closure.add(cand)
                    changed = True
    return closure


def test_is_in_g0_matches_brute_force_on_finite_graph():
    g = finite_cycle_graph(3)
    closure = brute_force_g0(g)
    vertices = g.all_vertices().members()
    for r in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            target = SymbolicSet.of(
                *((fam, IndexSet.of(k)) for fam, k in combo))
            verdict, _ = g.is_in_g0(target)
            expected = "yes" if combo and frozenset(combo) in closure else "no"
            # every nonempty finite set is a finite union of singletons
            if combo:
                expected = "yes"
            assert verdict == expected, f"disagrees on {combo}"
    assert all(frozenset(m) in closure
               for m in [{("u", 0)}, {("u", 0), ("u", 1)}])


# -- minimal infinite emitters ----------------------------------------------


def test_minimal_emitters_graph_d_source_is_whole_vertex_set():
    g = graph_d_source()
    emitters, complete = g.minimal_infinite_emitters()
    assert complete
    assert [m.vertices for m in emitters] == [
        SymbolicSet.of(("v", IndexSet.at_least(0)))]


def test_minimal_emitters_graph_d_target_are_the_two_rays():
    h = graph_d_target()
    emitters, complete = h.minimal_infinite_emitters()
    assert complete
    assert {m.vertices for m in emitters} == {P, Q}


def test_minimal_emitters_single_vertex_graph():
    g = graph_a_source()
    emitters, complete = g.minimal_infinite_emitters()
    assert complete
    assert [m.vertices for m in emitters] == [SymbolicSet.singleton("w", 0)]
    assert "vertex" in emitters[0].certificate


def test_minimal_emitters_graph_b():
    emitters, _ = graph_b().minimal_infinite_emitters()
    assert [m.vertices for m in emitters] == [SymbolicSet.singleton("w", 0)]


def test_finite_graph_has_no_infinite_emitters():
    emitters, complete = finite_cycle_graph().minimal_infinite_emitters()
    assert complete and emitters == []


def test_every_reported_emitter_is_infinite_and_minimal():
    for g in (graph_a_source(), graph_b(), graph_d_source(), graph_d_target()):
        emitters, _ = g.minimal_infinite_emitters()
        for m in emitters:
            assert g.epsilon(m.vertices).cardinality() == INFINITE
        for m, o in itertools.permutations(emitters, 2):
            assert not m.vertices.proper_subset_of(o.vertices)
        # no closure core strictly inside a reported emitter keeps an
        # infinite emitted set
        cores, saturated = g.cores()
        assert saturated
        for m in emitters:
            for core, _label in cores:
                if core.proper_subset_of(m.vertices):
                    assert g.epsilon(core).cardinality() != INFINITE


def test_unsaturated_closure_gives_incomplete_answers(monkeypatch):
    ray = SymbolicSet.of(("w", IndexSet.at_least(5)))
    assert graph_d_target().is_in_g0(ray)[0] == "no"
    # the cap is read when a graph first builds its closure; fixture d's
    # target has two closure seeds, so a cap of one stops it unsaturated
    monkeypatch.setattr(graphs, "CLOSURE_CAP", 1)
    h = graph_d_target()
    assert h.cores()[1] is False
    assert h.range_intersection_closure()[1] is False
    emitters, complete = h.minimal_infinite_emitters()
    assert not complete
    assert {m.vertices for m in emitters} == {P, Q}
    # a union of the cores found is still a member; beyond them, unknown
    assert h.is_in_g0(P.union(Q))[0] == "yes"
    assert h.is_in_g0(ray)[0] == "unknown"
    with pytest.raises(SchemaError):
        decompose_cylinder(h, Cylinder(Ultrapath((), Q)))


def test_minimal_emitters_in_range():
    h = graph_d_target()
    in_q, _ = h.minimal_emitters_in(h.range_of(f(-1)))
    assert [m.vertices for m in in_q] == [Q]
    in_single, _ = h.minimal_emitters_in(h.range_of(f(-3)))
    assert in_single == []
    g = graph_a_source()
    in_d, _ = g.minimal_emitters_in(g.range_of(EdgeRef("d", 0)))
    assert [m.vertices for m in in_d] == [SymbolicSet.singleton("w", 0)]


def test_infinite_emitter_vertices():
    assert graph_a_source().infinite_emitter_vertices() == SymbolicSet.singleton("w", 0)
    assert graph_d_target().infinite_emitter_vertices().is_empty()


# -- per-edge memo ------------------------------------------------------------


def _edges_near_origin(g, bound=6):
    return [EdgeRef(fam, k) for fam, ef in g.edge_families.items()
            for k in ef.domain.intersect(IndexSet.between(-bound, bound))
            .members()]


def _fresh_copy(g):
    return Ultragraph(g.name, g.vertex_families, g.edge_families.values())


def _cold_answers(g, e, nxt):
    """Per-edge answers of a copy of g that has answered nothing yet; the
    adjacency of e to each edge of ``nxt``."""
    h = _fresh_copy(g)
    found, _ = h.minimal_emitters_in(h.range_of(e))
    successors = h.epsilon(h.range_of(e))
    return (h.source(e), h.range_of(e), successors,
            tuple(found),
            tuple(bounded_edges(successors, 3, 2)),
            tuple(EdgeRef(*p) for p in successors.sample(6)),
            tuple(successors.contains(*e2) for e2 in nxt))


def test_memoized_edge_answers_match_a_fresh_graph():
    from helpers_random import random_family_graph

    rng = random.Random(17)
    checked = 0
    for tag in range(12):
        g = random_family_graph(rng, tag)
        edges = _edges_near_origin(g)
        for _ in range(2):  # the second pass reads the memo
            for e in edges:
                warm = (g.source(e), g.range_of(e), g.successor_edges(e),
                        g.range_emitters(e), g.bounded_successors(e, 3, 2),
                        g.successor_sample(e, 6),
                        tuple(g.adjacent(e, e2) for e2 in edges))
                assert warm == _cold_answers(g, e, edges), (g.name, e)
                checked += 1
    assert checked > 100


EDGE_QUERIES = {"source", "range_of", "adjacent", "successor_edges",
                "successor_sample", "bounded_successors", "range_emitters"}
GRAPH_QUERIES = {"canonical_shapes", "cores", "range_intersection_closure",
                 "minimal_infinite_emitters"}


def _ask_everything(g, edges, bounds=(1, 2, 3)):
    """Ask every memoized query of g; yield each answer with the answer of
    a copy of g that has answered nothing yet."""
    for query in GRAPH_QUERIES:
        yield getattr(g, query)(), getattr(_fresh_copy(g), query)()
    for e in edges:
        h = _fresh_copy(g)
        found, _ = h.minimal_emitters_in(h.range_of(e))
        yield g.source(e), h.source(e)
        yield g.range_of(e), h.range_of(e)
        yield g.successor_edges(e), h.epsilon(h.range_of(e))
        yield g.range_emitters(e), tuple(found)
        for bound in bounds:
            yield g.bounded_successors(e, bound), tuple(bounded_edges(
                h.epsilon(h.range_of(e)), bound))
            yield g.successor_sample(e, bound), tuple(
                EdgeRef(*p) for p in h.epsilon(h.range_of(e)).sample(bound))
        for e2 in edges[:6]:
            yield g.adjacent(e, e2), h.source_in(e2, h.range_of(e))


def test_edge_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(graphs, "EDGE_MEMO_CAP", 4)
    g = graph_b()
    edges = _edges_near_origin(g, 20)
    assert len(edges) > 8
    for warm, cold in _ask_everything(g, edges + edges):
        assert warm == cold
        assert all(len(memo) <= 4 for memo in g._memos.values())
    assert set(g._memos) == EDGE_QUERIES | GRAPH_QUERIES
    for query in GRAPH_QUERIES:  # one answer each, handed out again
        assert len(g._memos[query]) == 1
        assert getattr(g, query)() is getattr(g, query)()


def test_graph_memos_live_in_one_place():
    # every answer a graph keeps sits in _memos, under the query's name
    for g in (graph_a_source(), graph_b(), graph_d_target()):
        for _ in _ask_everything(g, _edges_near_origin(g, 3), (2,)):
            pass
        held = {name for name, value in vars(g).items()
                if isinstance(value, dict)}
        assert held == {"vertex_families", "edge_families", "_memos"}
        assert set(g._memos) == EDGE_QUERIES | GRAPH_QUERIES


def test_edge_ref_is_its_family_index_pair():
    e = EdgeRef("f", -3)
    assert hash(e) == hash(("f", -3))
    assert e == ("f", -3) and ("f", -3) == e
    assert (str(e), repr(e)) == ("f[-3]", "EdgeRef(family='f', index=-3)")
    assert f"{e}" == "f[-3]"
    assert e.family == "f" and e.index == -3
    # sets and dicts iterate EdgeRefs as they iterate the plain pairs
    pairs = [("f", k) for k in range(-40, 40, 3)] + [("g", 7), ("d", 0)]
    assert [tuple(x) for x in set(EdgeRef(*p) for p in pairs)] == \
        list(set(pairs))
    emitter = graph_a_source().minimal_infinite_emitters()[0][0]
    assert e != emitter and emitter != e
