"""Random family graphs and the mirror and identity schema maps.

A copy of the generator that the acceptance suite uses for criterion 8,
kept here so that a change to the tests cannot change the benchmark
workload.  Every change to this file changes what ``gsbc-probe``
measures, so make one only together with a new baseline.
"""

import random

from ultrashift.codes import MapPresentation, SchemaClass
from ultrashift.definable import LitAtom, PcSchema, VarAtom
from ultrashift.graphs import (
    EdgeFamily,
    RangeCase,
    SourceCase,
    Ultragraph,
)
from ultrashift.intsets import (
    IDENTITY_MAP,
    AffineIndexMap,
    IndexSet,
    SymbolicSet,
    const_map,
    shift_map,
)

DOMS = [IndexSet.at_least(0), IndexSet.at_least(1), IndexSet.nonzero(),
        IndexSet.all(), IndexSet.between(0, 5)]


def random_family_graph(rng: random.Random, tag: int) -> Ultragraph:
    """A sink-free graph with up to three families.

    One identity-source edge family per vertex family keeps every vertex
    emitting; an optional constant-source family adds an infinite emitter.
    Ranges mix constant points, rays, and one affine singleton."""
    vdom = rng.choice(DOMS)
    vfams = {"v": vdom}
    efams = []

    def vset_const():
        c = _pick(rng, vdom)
        parts = [("v", IndexSet.of(c))]
        if rng.random() < 0.5:
            a = _pick(rng, vdom)
            ray = IndexSet.at_least(a) if rng.random() < 0.5 else \
                IndexSet.at_most(a)
            parts.append(("v", ray.intersect(vdom)))
        return SymbolicSet.of(*parts)

    def atoms():
        if rng.random() < 0.5:
            return ()
        m = rng.choice([IDENTITY_MAP, shift_map(1), shift_map(-1),
                        AffineIndexMap(-1, 0)])
        return (("v", m),)

    efams.append(EdgeFamily(
        "p", vdom, (SourceCase(vdom, "v", IDENTITY_MAP),),
        (RangeCase(vdom, vset_const(), atoms()),)))
    if rng.random() < 0.7:
        dom_q = rng.choice([IndexSet.at_least(0), IndexSet.at_least(1)])
        efams.append(EdgeFamily(
            "q", dom_q,
            (SourceCase(dom_q, "v", const_map(_pick(rng, vdom))),),
            (RangeCase(dom_q, vset_const(), atoms()),)))
    if rng.random() < 0.4:
        dom_r = rng.choice(DOMS)
        efams.append(EdgeFamily(
            "r", dom_r,
            (SourceCase(dom_r, "v", const_map(_pick(rng, vdom))),),
            (RangeCase(dom_r, vset_const(), ()),)))
    return Ultragraph(f"R{tag}", vfams, efams)


def _pick(rng: random.Random, dom: IndexSet) -> int:
    cands = dom.sample(6)
    return rng.choice(cands)


def mirror_graph(g: Ultragraph) -> Ultragraph:
    """One vertex, a loop family per edge family of g (same name/domain)."""
    u = IndexSet.between(0, 0)
    efams = [EdgeFamily(
        name, ef.domain,
        (SourceCase(ef.domain, "u", const_map(0)),),
        (RangeCase(ef.domain, SymbolicSet.singleton("u", 0)),))
        for name, ef in g.edge_families.items()]
    return Ultragraph(f"{g.name}_mirror", {"u": u}, efams)


def mirror_map(g: Ultragraph) -> MapPresentation:
    """Collapse onto the mirror graph family by family: a generalized
    sliding block code with one-coordinate classes."""
    h = mirror_graph(g)
    classes = []
    for name, ef in g.edge_families.items():
        classes.append(SchemaClass(
            [PcSchema(1, (VarAtom(name),), ef.domain)],
            family=name, index_domain=ef.domain))
    tails, _ = g.minimal_infinite_emitters()
    h_tail = h.minimal_infinite_emitters()[0]
    if tails:
        classes.append(SchemaClass(
            [PcSchema(1, (LitAtom(m),)) for m in tails],
            symbol=h_tail[0]))
    return MapPresentation(g, h, classes, f"collapse {g.name}")


def identity_map(g: Ultragraph) -> MapPresentation:
    classes = []
    for name, ef in g.edge_families.items():
        classes.append(SchemaClass(
            [PcSchema(1, (VarAtom(name),), ef.domain)],
            family=name, index_domain=ef.domain))
    for m in g.minimal_infinite_emitters()[0]:
        classes.append(SchemaClass([PcSchema(1, (LitAtom(m),))], symbol=m))
    return MapPresentation(g, g, classes, f"identity on {g.name}")

