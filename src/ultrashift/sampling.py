"""Random points, cylinders, and sample pools over an ultragraph.

Bounded-index random walks: candidates are always drawn near the index
origin first, widening the bound a few times if a range only reaches far
vertices.  Each draw reads the graph's memos (``bounded_all_edges``,
``bounded_successors``, ``range_emitters``), so a pool of many points on
one graph bounds each edge set once.  A graph on which no point can be
drawn raises ``PointError``.  Used by property tests and by the bounded
sides of the checkers.
"""

from __future__ import annotations

import random

from .graphs import EdgeRef, Ultragraph, bounded_edges
from .intsets import IndexSet, SymbolicSet
from .paths import Ultrapath
from .points import Cylinder, FinitePoint, PeriodicPoint, Point, PointError


# how often a draw may widen its index bound when nothing lies within it
WIDEN = 2


def random_edge(g: Ultragraph, rng: random.Random, bound: int = 8) -> EdgeRef:
    cands = g.bounded_all_edges(bound, WIDEN)
    if not cands:
        raise PointError(f"no edges within index bound on {g.name}")
    return rng.choice(cands)


def random_walk(g: Ultragraph, rng: random.Random, steps: int,
                bound: int = 8):
    path = [random_edge(g, rng, bound)]
    for _ in range(steps - 1):
        cands = g.bounded_successors(path[-1], bound, WIDEN)
        if not cands:
            break
        path.append(rng.choice(cands))
    return path


def random_periodic_point(g: Ultragraph, rng: random.Random,
                          bound: int = 8) -> PeriodicPoint | None:
    walk = random_walk(g, rng, 8, bound)
    seen = {}
    for i, e in enumerate(walk):
        if e in seen:
            return PeriodicPoint(tuple(walk[:seen[e]]),
                                 tuple(walk[seen[e]:i]))
        seen[e] = i
    # close a cycle by returning to an already-visited edge if possible
    last = walk[-1]
    cands = g.bounded_successors(last, bound, WIDEN)
    for i, e in enumerate(walk):
        if e in cands:
            return PeriodicPoint(tuple(walk[:i]), tuple(walk[i:]))
    return None


def random_finite_point(g: Ultragraph, rng: random.Random,
                        bound: int = 8) -> FinitePoint | None:
    emitters, _ = g.minimal_infinite_emitters()
    if not emitters:
        return None
    if rng.random() < 0.2:
        return FinitePoint((), rng.choice(emitters))
    for _ in range(6):
        walk = random_walk(g, rng, rng.randint(1, 5), bound)
        tails = g.range_emitters(walk[-1])
        if tails:
            return FinitePoint(tuple(walk), rng.choice(tails))
    return FinitePoint((), rng.choice(emitters))


def random_point(g: Ultragraph, rng: random.Random, bound: int = 8) -> Point:
    if rng.random() < 0.5:
        fp = random_finite_point(g, rng, bound=bound)
        if fp is not None:
            return fp
    pp = random_periodic_point(g, rng, bound=bound)
    if pp is not None:
        return pp
    fp = random_finite_point(g, rng, bound=bound)
    if fp is None:
        raise PointError(f"could not sample a point of {g.name}")
    return fp


def zero_points(g: Ultragraph) -> list[FinitePoint]:
    emitters, _ = g.minimal_infinite_emitters()
    return [FinitePoint((), m) for m in emitters]


def random_cylinder(g: Ultragraph, rng: random.Random,
                    min_base: int = 0) -> Cylinder:
    base_len = rng.randint(min_base, 3)
    if base_len == 0:
        emitters, _ = g.minimal_infinite_emitters()
        choices = [m.vertices for m in emitters]
        choices.append(SymbolicSet.of(
            *((f, IndexSet.of(k))
              for f, k in g.all_vertices().sample(3))))
        terminal = rng.choice([c for c in choices if not c.is_empty()])
        base = Ultrapath((), terminal)
    else:
        walk = random_walk(g, rng, base_len)
        rng_last = g.range_of(walk[-1])
        choices = [rng_last]
        choices += [m.vertices for m in g.range_emitters(walk[-1])]
        first = rng_last.sample(1)
        if first:
            choices.append(SymbolicSet.of((first[0][0],
                                           IndexSet.of(first[0][1]))))
        base = Ultrapath(tuple(walk), rng.choice(choices))
    eps = g.epsilon(base.terminal)
    pool = bounded_edges(eps, 8, WIDEN)
    rng.shuffle(pool)
    chosen = pool[:rng.randint(0, min(2, len(pool)))]
    excluded = SymbolicSet.of(*((e.family, IndexSet.of(e.index))
                                for e in chosen))
    return Cylinder(base, excluded)


def point_pool(g: Ultragraph, rng: random.Random,
               size: int = 40) -> list[Point]:
    """Zero-length points, short finite points, and random periodics."""
    pool: list[Point] = list(zero_points(g))
    while len(pool) < size:
        pool.append(random_point(g, rng))
    return pool
