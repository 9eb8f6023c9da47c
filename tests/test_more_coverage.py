"""Focused coverage for paths the broader suites touch only indirectly."""

import random

import pytest

from ultrashift import dsl
from ultrashift.codes import check_csc_item_ii, eval_resolved
from ultrashift.corpus import (
    build_fixture,
    d,
    e,
    f,
    graph_a_source,
    graph_d_target,
)
from ultrashift.definable import (
    PcSchema,
    LitAtom,
    VarAtom,
    match_schema,
    schema_intersect,
    sample_points,
    FdBounds,
)
from ultrashift.graphs import EdgeRef
from ultrashift.intsets import IndexSet, SymbolicSet, shift_map
from ultrashift.paths import PathError, minimal_emitters_in_range
from ultrashift.points import (
    Cylinder,
    FinitePoint,
    cylinder_contains,
)
from ultrashift.paths import Ultrapath
from ultrashift import sampling

GA = graph_a_source()
HD = graph_d_target()


def test_minimal_emitters_in_range_validates_the_path():
    got, complete = minimal_emitters_in_range(HD, (f(-2), f(-1)))
    assert complete and [m.vertices for m in got] == [
        SymbolicSet.of(("w", IndexSet.at_least(1)))]
    with pytest.raises(PathError):
        minimal_emitters_in_range(HD, (f(-2), f(-3)))
    with pytest.raises(PathError):
        minimal_emitters_in_range(HD, ())


def test_item_ii_at_a_positive_length_finite_point():
    fx = build_fixture("c")
    phi = fx.maps["phi_finite"]
    a_tail = fx.points["zero"].tail
    x_bar = FinitePoint((d(),), a_tail)
    img = eval_resolved(phi, x_bar)
    assert img.path == (e(1),)
    F = SymbolicSet.singleton("e", 3)
    v = check_csc_item_ii(phi, x_bar, F)
    assert v.status == "holds"
    # f[2] is the only extension mapping onto the excluded e[3]
    assert v.witness == SymbolicSet.singleton("f", 2)
    source_cyl = Cylinder(Ultrapath((), a_tail.vertices), v.witness)
    target_cyl = Cylinder(Ultrapath((), img.tail.vertices), F)
    rng = random.Random(1)
    for _ in range(30):
        x = sampling.random_point(phi.source, rng)
        if cylinder_contains(phi.source, source_cyl, x):
            assert cylinder_contains(phi.target, target_cyl,
                                     eval_resolved(phi, x))


def test_yes_witnesses_reconstruct_the_queried_set():
    from helpers_random import random_family_graph

    rng = random.Random(5)
    randoms = [random_family_graph(rng, i) for i in range(6)]
    for g in [GA, HD, build_fixture("d").source] + randoms:
        for _ in range(40):
            parts = []
            fam = rng.choice(list(g.vertex_families))
            dom = g.vertex_families[fam]
            for _ in range(rng.randint(1, 3)):
                pick = rng.random()
                a = rng.choice(dom.sample(6))
                if pick < 0.4:
                    parts.append((fam, IndexSet.of(a)))
                elif pick < 0.7:
                    parts.append((fam, IndexSet.at_least(a).intersect(dom)))
                else:
                    parts.append((fam, IndexSet.at_most(a).intersect(dom)))
            target = SymbolicSet.of(*parts)
            verdict, info = g.is_in_g0(target)
            if verdict == "yes":
                cores, rest = info
                rebuilt = rest
                for core, _label in cores:
                    rebuilt = rebuilt.union(core)
                assert rebuilt == target
                assert rest.is_finite()
            elif verdict == "no":
                assert isinstance(info, str)


def test_schema_intersection_agrees_with_conjunction_on_samples():
    rng = random.Random(8)
    for g in (GA, HD):
        pool = sample_points(g, FdBounds(depth=3, index_bound=3, samples=25))
        fams = list(g.edge_families)
        for _ in range(40):
            def rand_schema():
                atoms = []
                dom = None
                for _ in range(rng.randint(1, 2)):
                    famx = rng.choice(fams)
                    if rng.random() < 0.5 and dom is None:
                        atoms.append(VarAtom(famx, rng.choice(
                            [shift_map(0), shift_map(1)])))
                        a = rng.randint(-2, 2)
                        dom = rng.choice([IndexSet.at_least(a),
                                          IndexSet.at_most(a)])
                    else:
                        idx = rng.choice(g.edge_domain(famx).sample(4))
                        atoms.append(LitAtom(EdgeRef(famx, idx)))
                return PcSchema(rng.randint(1, 2), tuple(atoms), dom)

            s1, s2 = rand_schema(), rand_schema()
            merged = schema_intersect(g, s1, s2, index_bound=4)
            for x in pool:
                both = (match_schema(s1, x) is not None and
                        match_schema(s2, x) is not None)
                got = any(match_schema(m, x) is not None for m in merged)
                assert got == both, (g.name, s1, s2, x)


def test_duplicate_definitions_are_rejected():
    text = """
    ultragraph G {
      vertices w over [0..0]
      edges d over [0..0] { source w[0] range w[0] }
    }
    ultragraph G {
      vertices w over [0..0]
      edges d over [0..0] { source w[0] range w[0] }
    }
    """
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(text)
    assert "already defined" in str(err.value)
