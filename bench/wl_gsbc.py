"""Workload ``gsbc-probe``: continuity probes of generalized sliding block
codes at infinite points.

The maps are the first ten of acceptance criterion 8: the draw of random
family graphs from generator seed 808, with mirror and identity schema maps
taken in turn.  The graphs are fixed; the run's seed draws the probe points
(40 per map, each matched to a fixed shape of cycle and preamble lengths)
and nothing else.  Drawing
the graphs from the run's seed as well made the per-run mean swing by a
quarter between seeds, because a few graphs cost ten times the median (see
the README), which no run length that fits the budget averages out.
"""

from __future__ import annotations

import random
from collections import Counter

from common import Op, agreement

CRITERION_SEED = 808
MAPS = 10
PROBES_PER_MAP = 40
POOL_SIZE = 200
# a run draws up to this many more points per map to find the shapes its
# pool lacks; 99.85 % of shapes then match exactly (seeds 101-110)
EXTRA_DRAWS = 1000


def criterion8_maps(count: int):
    """The first ``count`` maps of criterion 8, drawn exactly as the
    acceptance test draws them: mirror and identity maps in turn."""
    from ultrashift import sampling
    from ultrashift.codes import validate_partition
    from ultrashift.intsets import INFINITE
    from ultrashift.points import length
    from family_graphs import identity_map, mirror_map, random_family_graph

    rng = random.Random(CRITERION_SEED)
    out = []
    attempts = 0
    while len(out) < count and attempts < 120:
        attempts += 1
        g = random_family_graph(rng, attempts)
        try:
            phi = mirror_map(g) if len(out) % 2 == 0 else identity_map(g)
            pool = sampling.point_pool(g, rng, 24)
        except Exception:
            continue  # a degenerate draw; criterion 8 takes another graph
        if validate_partition(phi, pool).status != "holds":
            continue
        if not any(length(x) == INFINITE for x in pool):
            continue
        out.append(phi)
    return out


def shape(x) -> tuple[int, int]:
    return len(x.cycle), len(x.preamble)


def infinite_points(phi, rng: random.Random) -> list:
    """The infinite points of a sample pool of the map's source graph,
    sorted by shape."""
    from ultrashift import sampling
    from ultrashift.intsets import INFINITE
    from ultrashift.points import length

    pool = sampling.point_pool(phi.source, rng, POOL_SIZE)
    return sorted((x for x in pool if length(x) == INFINITE), key=shape)


def points_of_shapes(phi, rng: random.Random, shapes: list) -> list:
    """For each shape, a point of the map's source graph drawn with rng:
    the infinite points of a pool, then further draws for the shapes the
    pool lacks.  A shape still unmatched takes the nearest unused point
    (cycle length first, then preamble length), or a used one when all
    have been used."""
    from ultrashift import sampling
    from ultrashift.intsets import INFINITE
    from ultrashift.points import length

    points = infinite_points(phi, rng)
    missing = Counter(shapes) - Counter(map(shape, points))
    for _ in range(EXTRA_DRAWS):
        if not missing:
            break
        x = sampling.random_point(phi.source, rng)
        if length(x) == INFINITE and missing[shape(x)] > 0:
            points.append(x)
            missing[shape(x)] -= 1
            missing = +missing
    points.sort(key=shape)
    unused = list(points)
    out = []
    for c, p in shapes:
        pick = min(unused or points,
                   key=lambda x: (abs(len(x.cycle) - c),
                                  abs(len(x.preamble) - p)))
        if unused:
            unused.remove(pick)
        out.append(pick)
    return out


class GsbcProbe:
    trace_scale = 0.5  # the traced run probes the first half of the maps

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.maps = max(2, round(MAPS * scale))

    def setup(self) -> None:
        from ultrashift.codes import ProbeBounds
        from ultrashift.points import ConvergenceBounds

        self.bounds = ProbeBounds(n_max=8, depth=12,
                                  conv=ConvergenceBounds(m_max=4, n_max=12))
        self.cases = []
        for i, phi in enumerate(criterion8_maps(self.maps)):
            # a probe's cost follows its map and the lengths of the point's
            # cycle and preamble, so the shapes to probe come from a pool
            # drawn with criterion 8's seed, at evenly spaced ranks, and the
            # run's seed draws, for each shape, a point of that shape or the
            # nearest one: every seed probes the same mix of lengths
            ref = infinite_points(
                phi, random.Random(CRITERION_SEED * 1009 + i))
            n = len(ref)
            if n > PROBES_PER_MAP:
                ref = [ref[(2 * k + 1) * n // (2 * PROBES_PER_MAP)]
                       for k in range(PROBES_PER_MAP)]
            self.cases.append((phi, points_of_shapes(
                phi, random.Random(self.seed * 1009 + i),
                [shape(x) for x in ref])))

    def ops(self) -> list[Op]:
        from ultrashift import codes

        out = []
        for i, (phi, points) in enumerate(self.cases):
            for j, x in enumerate(points):
                out.append(Op(
                    f"probe map {i} point {j}",
                    lambda phi=phi, x=x, j=j: codes.probe_continuity(
                        phi, x, self.bounds, random.Random(j)),
                    lambda v, phi=phi, x=x: _check_probe(v, phi, x)))
        return out


def expected_image(x):
    """The image of an infinite point, computed apart from the package: the
    identity map keeps every edge, and the mirror map sends the edge f[k] to
    the loop f[k] of the one-vertex mirror graph, which keeps the family
    name and index.  Both images are the input's own edge sequence."""
    return _Periodic(tuple(x.preamble), tuple(x.cycle))


def _check_probe(verdict, phi, x):
    from ultrashift import codes

    if verdict.status != "holds":
        return f"probe says {verdict.status}; a generalized sliding block " \
               f"code is continuous"
    img = codes.eval_resolved(phi, x)
    if not hasattr(img, "cycle"):
        return f"image {img} of an infinite point is finite"
    want = expected_image(x)
    # two eventually periodic sequences that agree this far agree forever
    depth = max(len(img.preamble), len(want.preamble)) + \
        len(img.cycle) * len(want.cycle)
    if agreement(img, want, depth) < depth:
        return f"image {img} differs from the relabelled input"
    return None


class _Periodic:
    """An eventually periodic edge sequence for the coordinate helpers."""

    def __init__(self, preamble, cycle):
        self.preamble, self.cycle = preamble, cycle
