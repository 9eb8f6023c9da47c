"""Maps with a known window, a brute-force check of a window, and maps
built to fail an escape condition."""

import random

from helpers_random import identity_map, mirror_map, random_family_graph
from ultrashift import sampling
from ultrashift.codes import MapPresentation, RuleMap, SchemaClass
from ultrashift.corpus import build_fixture, d, e, f
from ultrashift.definable import LitAtom, PcSchema, VarAtom
from ultrashift.graphs import EdgeRef, Ultragraph
from ultrashift.intsets import AffineIndexMap, IndexSet
from ultrashift.paths import enumerate_blocks
from ultrashift.points import block_witness


def window_map(g: Ultragraph, h: Ultragraph, w: int) -> MapPresentation:
    """Target symbol mirrors the w-th coordinate; window exactly w."""
    classes = []
    prefixes = [()] if w == 1 else [tuple(b.symbols)
                                    for b in enumerate_blocks(g, w - 1, 9)
                                    if all(isinstance(s, EdgeRef)
                                           for s in b.symbols)]
    for name, ef in g.edge_families.items():
        body = [PcSchema(1, tuple(LitAtom(s) for s in p) + (VarAtom(name),),
                         ef.domain) for p in prefixes]
        classes.append(SchemaClass(body, family=name,
                                   index_domain=ef.domain))
    return MapPresentation(g, h, classes, f"window-{w} mirror")


def localizable(phi, g: Ultragraph, w: int, bound: int = 9) -> bool:
    """Brute force: is the first image symbol a function of the first w
    coordinates?  Complete for finite graphs once the bound covers every
    index."""
    for b in enumerate_blocks(g, w, bound):
        if not all(isinstance(s, EdgeRef) for s in b.symbols):
            continue
        seen = set()
        for ext in enumerate_blocks(g, w + 2, bound):
            if ext.symbols[:w] != b.symbols:
                continue
            witness = block_witness(g, ext, bound)
            if witness is None:
                continue
            seen.add(phi.symbol_at(witness))
        if len(seen) > 1:
            return False
    return True


def index_shift_map(g: Ultragraph) -> MapPresentation:
    """Sends the edge f[k] to f[k+1] of the source graph itself: a window-1
    map whose images are often not points of its target.  An edge whose
    successor index leaves the family's domain matches no class."""
    down = AffineIndexMap(1, -1)
    classes = [SchemaClass([PcSchema(1, (VarAtom(name),), ef.domain)],
                           family=name, index_map=AffineIndexMap(1, 1),
                           index_domain=ef.domain.intersect(
                               down.image(ef.domain)))
               for name, ef in g.edge_families.items()]
    classes += [SchemaClass([PcSchema(1, (LitAtom(m),))], symbol=m)
                for m in g.minimal_infinite_emitters()[0]]
    return MapPresentation(g, g, classes, f"index shift on {g.name}")


def random_window_maps(seed: int, graphs: int):
    """(map, pool) pairs over seeded family graphs, with windows 1 to 3."""
    rng = random.Random(seed)
    for tag in range(graphs):
        g = random_family_graph(rng, tag)
        mirror = mirror_map(g)
        pool = sampling.point_pool(g, random.Random(tag), 12)
        for phi in [mirror, identity_map(g), index_shift_map(g)] + \
                [window_map(g, mirror.target, w) for w in (1, 2, 3)]:
            yield phi, pool


def everything_to_e1() -> MapPresentation:
    """Fixture a's graphs, every edge to e[1] and the tail to B: the
    extension set A_x of e[1] at the zero-length point is d and every f,
    so iib fails there, and so does item ii once e[1] is excluded."""
    fa = build_fixture("a")
    a = fa.points["zero"].tail
    b = next(c.symbol for c in fa.phi.classes if c.is_emitter_class())
    return MapPresentation(fa.source, fa.target, [
        SchemaClass([PcSchema(1, (LitAtom(a),))], symbol=b),
        SchemaClass([PcSchema(1, (LitAtom(d()),)),
                     PcSchema(1, (VarAtom("f"),), IndexSet.at_least(1))],
                    symbol=e(1)),
    ], label="everything to e[1]")


def escaping_map() -> MapPresentation:
    """Fixture a's source into fixture d's target: extensions of the
    zero-length point by f[j], j >= 2, map to an edge whose source is
    outside the image tail, so items ii and iia fail there."""
    fa, fd = build_fixture("a"), build_fixture("d")
    tail_p = next(m for m in fd.target.minimal_infinite_emitters()[0]
                  if m.vertices.part("w").max() == -1)
    return MapPresentation(fa.source, fd.target, [
        SchemaClass([PcSchema(1, (LitAtom(fa.points["zero"].tail),))],
                    symbol=tail_p),
        SchemaClass([PcSchema(1, (VarAtom("f"),), IndexSet.at_least(2))],
                    symbol=f(1)),
        SchemaClass([PcSchema(1, (LitAtom(d()),)),
                     PcSchema(1, (LitAtom(f(1)),))], symbol=f(-1)),
    ], label="escaping crafted map")


def rule_twin(phi: MapPresentation) -> RuleMap:
    """The same map given by its first-symbol rule, without classes."""
    return RuleMap(phi.source, phi.target, phi.symbol_at,
                   f"{phi.label} by rule")
