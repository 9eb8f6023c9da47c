"""Workload ``graph-intake``: random ultragraph documents taken from text to
their emitter inventory, one fresh graph per verdict.

A verdict parses one document (``dsl.parse``), validates the graph
(``validate_ultragraph``) and queries it cold: canonical shapes, cores, the
range-intersection closure, the minimal infinite emitters, ``is_in_g0`` on
four vertex sets and ``epsilon`` on the same sets.  The graphs have one or
two vertex families, an identity-source edge family per vertex family with
up to three range cases, constant-source families that make infinite
emitters, and ranges mixing points, rays, whole families and one affine
atom.  One draw in four has only finite domains, where a brute-force
closure decides algebra membership.

The checks never trust the package's set algebra: the expected graph is
written down while the text is printed, and emitted edges, ranges and
subsets are computed here from the generator's own description.
"""

from __future__ import annotations

import itertools
import random

from common import Op, spans_contain, vertex_set_contains, vertex_set_subset

DOCS_PER_ROUND = 1000
FINITE_SHARE = 0.25
WINDOWS = (8, 16, 32)
EPS_WINDOW = 12

# domain literal -> spans
INFINITE_DOMAINS = {"N": ((0, None),), "Z": ((None, None),),
                    "Z*": ((None, -1), (1, None)), ">=1": ((1, None),)}
FINITE_DOMAINS = {"[0..2]": ((0, 2),), "[0..3]": ((0, 3),)}


def _iset(spans):
    from ultrashift.intsets import IndexSet
    return IndexSet(tuple(spans))


def _near(spans, rng, count=6):
    """A few members near the finite ends of the spans (or near zero)."""
    out = []
    for lo, hi in spans:
        if lo is None and hi is None:
            out += range(-2, 3)
        elif lo is None:
            out += range(hi - 3, hi + 1)
        elif hi is None:
            out += range(lo, lo + 4)
        else:
            out += range(lo, hi + 1)
    return rng.sample(out, min(count, len(out)))


class Family:
    """The generator's own description of an edge family."""

    def __init__(self, name, domain, dom_text, source, cases):
        self.name, self.domain, self.dom_text = name, domain, dom_text
        self.source = source      # (vfam, scale, offset): one case
        self.cases = cases        # [(guard spans, guard text, const, atom)]

    def src(self, k):
        vf, scale, off = self.source
        return vf, scale * k + off

    def case(self, k):
        return next(c for c in self.cases if spans_contain(c[0], k))


class Draw:
    """One random graph: its text, the expected parsed graph, and enough
    description to compute ranges and emitted edges independently."""

    def __init__(self, rng: random.Random, tag: int, finite: bool):
        self.name = f"I{tag}"
        domains = FINITE_DOMAINS if finite else INFINITE_DOMAINS
        names = ["v", "w"][:rng.choice((1, 2))]
        self.vdoms = {}
        self.vtext = {}
        for vf in names:
            # two finite families stay at six vertices for the brute force
            text = "[0..2]" if finite and len(names) == 2 else \
                rng.choice(sorted(domains))
            self.vtext[vf], self.vdoms[vf] = text, domains[text]
        self.families: list[Family] = []
        for vf in names:
            self.families.append(Family(
                f"p{vf}", self.vdoms[vf], self.vtext[vf], (vf, 1, 0),
                self._cases(rng, self.vdoms[vf])))
        for vf in names:
            if rng.random() < 0.7:
                c = rng.choice(_near(self.vdoms[vf], rng))
                dom_text = rng.choice(["[0..3]", "[1..4]"] if finite
                                      else ["N", ">=1"])
                dom = {"[0..3]": ((0, 3),), "[1..4]": ((1, 4),),
                       "N": ((0, None),), ">=1": ((1, None),)}[dom_text]
                self.families.append(Family(
                    f"q{vf}", dom, dom_text, (vf, 0, c),
                    self._cases(rng, dom, max_cases=2)))
        self.finite = finite

    def _cases(self, rng, dom, max_cases=3):
        """Range cases whose guards split the domain at random cut points."""
        cuts = sorted(set(rng.sample(_near(dom, rng, 8),
                                     rng.randint(0, max_cases - 1))))
        bounds = [None] + cuts + [None]
        cases = []
        for lo, hi in zip(bounds, bounds[1:]):
            hi = None if hi is None else hi - 1
            guard = tuple(s for s in (_clip(span, lo, hi) for span in dom)
                          if s is not None)
            if not guard:
                continue
            if lo is None and hi is None:
                text = None
            elif lo is None:
                text = f"k <= {hi}"
            elif hi is None:
                text = f"k >= {lo}"
            else:
                text = f"k == {lo}" if lo == hi else f"k >= {lo} and k <= {hi}"
            cases.append((guard, text) + self._range(rng))
        return cases

    def _range(self, rng):
        """A constant part (never empty) and at most one affine atom."""
        const = []
        for _ in range(rng.choice((1, 1, 2))):
            vf = rng.choice(sorted(self.vdoms))
            dom = self.vdoms[vf]
            kind = rng.choice(("point", "point", "ray", "all"))
            if kind == "all":
                const.append((vf, "all", None))
            elif kind == "ray":
                a = rng.choice(_near(dom, rng))
                sign = rng.choice((">=", "<="))
                const.append((vf, sign, a))
            else:
                const.append((vf, "point", rng.choice(_near(dom, rng))))
        atom = None
        if rng.random() < 0.35:
            atom = (rng.choice(sorted(self.vdoms)), rng.choice((1, -1)),
                    rng.choice((-1, 0, 1, 2)))
        return const, atom

    # -- text and the expected graph ---------------------------------------

    def text(self) -> str:
        lines = [f"ultragraph {self.name} {{"]
        for vf, text in self.vtext.items():
            lines.append(f"  vertices {vf} over {text}")
        for fam in self.families:
            vf, scale, off = fam.source
            src = "k" if scale == 1 else str(off)
            lines.append(f"  edges {fam.name} over {fam.dom_text} {{")
            lines.append(f"    source {vf}[{src}]")
            for _guard, gtext, const, atom in fam.cases:
                bits = []
                for cvf, kind, a in const:
                    bits.append(f"all({cvf})" if kind == "all" else
                                f"{cvf}[{a}]" if kind == "point" else
                                f"{cvf}[{kind}{a}]")
                if atom is not None:
                    avf, scale, off = atom
                    k = "k" if scale == 1 else "-k"
                    bits.append(f"{avf}[{k}{off:+d}]" if off else
                                f"{avf}[{k}]")
                when = f" when {gtext}" if gtext is not None else ""
                lines.append(f"    range {', '.join(bits)}{when}")
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def const_spans(self, const):
        """{vfam: spans} of a constant part, clipped to the domains."""
        out = {}
        for vf, kind, a in const:
            dom = self.vdoms[vf]
            if kind == "all":
                part = list(dom)
            elif kind == "point":
                part = [(a, a)]
            elif kind == ">=":
                part = [s for s in (_clip(sp, a, None) for sp in dom) if s]
            else:
                part = [s for s in (_clip(sp, None, a) for sp in dom) if s]
            out.setdefault(vf, []).extend(part)
        return out

    def expected_graph(self):
        """The graph the parser should build, from the package's types."""
        from ultrashift.graphs import EdgeFamily, RangeCase, SourceCase
        from ultrashift.intsets import AffineIndexMap, SymbolicSet

        efams = []
        for fam in self.families:
            vf, scale, off = fam.source
            dom = _iset(fam.domain)
            ranges = []
            for guard, _text, const, atom in fam.cases:
                parts = [(cvf, _iset(_canon(spans)))
                         for cvf, spans in self.const_spans(const).items()]
                atoms = () if atom is None else \
                    ((atom[0], AffineIndexMap(atom[1], atom[2])),)
                ranges.append(RangeCase(_iset(guard), SymbolicSet.of(*parts),
                                        atoms))
            efams.append(EdgeFamily(
                fam.name, dom, (SourceCase(dom, vf, AffineIndexMap(
                    scale, off)),), tuple(ranges)))
        vfams = {vf: _iset(spans) for vf, spans in self.vdoms.items()}
        return vfams, tuple(efams)

    # -- independent computations ------------------------------------------

    def range_members(self, fam: Family, k: int):
        """r(fam[k]) as {vfam: spans}."""
        _guard, _text, const, atom = fam.case(k)
        out = {vf: list(sp) for vf, sp in self.const_spans(const).items()}
        if atom is not None:
            avf, scale, off = atom
            j = scale * k + off
            if spans_contain(self.vdoms[avf], j):
                out.setdefault(avf, []).append((j, j))
        return out

    def edges_in(self, window: int):
        for fam in self.families:
            for k in range(-window, window + 1):
                if spans_contain(fam.domain, k):
                    yield fam, k

    def infinite_emitter_vertices(self):
        """Vertices with infinitely many outgoing edges: the sources of the
        constant-source families over infinite domains."""
        return {fam.src(0) for fam in self.families if fam.source[1] == 0
                and any(None in span for span in fam.domain)}

    def vertices(self):
        return [(vf, k) for vf, spans in self.vdoms.items()
                for lo, hi in spans for k in range(lo, hi + 1)]


def _clip(span, lo, hi):
    slo, shi = span
    nlo = lo if slo is None else slo if lo is None else max(lo, slo)
    nhi = hi if shi is None else shi if hi is None else min(hi, shi)
    if nlo is not None and nhi is not None and nlo > nhi:
        return None
    return nlo, nhi


def _canon(spans):
    """Sorted, merged spans."""
    key = (lambda s: (float("-inf") if s[0] is None else s[0]))
    out = []
    for lo, hi in sorted(spans, key=key):
        if out:
            plo, phi = out[-1]
            # sorted by lo, so lo is None only after another None
            if phi is None or lo is None or lo <= phi + 1:
                if phi is not None and (hi is None or hi > phi):
                    out[-1] = (plo, hi)
                continue
        out.append((lo, hi))
    return tuple(out)


def brute_force_algebra(draw: Draw):
    """All sets reachable from singletons and ranges by nonempty unions and
    intersections, on a graph with finitely many vertices."""
    base = {frozenset([v]) for v in draw.vertices()}
    for fam, k in draw.edges_in(8):
        rng_ = draw.range_members(fam, k)
        base.add(frozenset((vf, j) for vf, spans in rng_.items()
                           for lo, hi in spans for j in range(lo, hi + 1)))
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


class GraphIntake:
    trace_scale = 0.25

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.docs = max(4, round(DOCS_PER_ROUND * scale))

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.cases = []
        for i in range(self.docs):
            draw = Draw(rng, i, finite=rng.random() < FINITE_SHARE)
            self.cases.append((draw, draw.text(), self._queries(draw, rng)))

    def _queries(self, draw: Draw, rng):
        """Four vertex sets: two finite sets and two edge ranges on infinite
        draws; random subsets, the empty set included, on finite ones."""
        from ultrashift.intsets import SymbolicSet

        def sym(members):
            return SymbolicSet.of(*((vf, _iset(((j, j),)))
                                    for vf, j in members))

        if draw.finite:
            verts = draw.vertices()
            return [sym(rng.sample(verts, rng.randint(0, len(verts))))
                    for _ in range(4)]
        out = []
        for _ in range(2):
            vf = rng.choice(sorted(draw.vdoms))
            out.append(sym((vf, j) for j in _near(draw.vdoms[vf], rng, 2)))
        for _ in range(2):
            fam = rng.choice(draw.families)
            k = rng.choice(_near(fam.domain, rng))
            out.append(SymbolicSet.of(*(
                (vf, _iset(_canon(spans)))
                for vf, spans in draw.range_members(fam, k).items())))
        return out

    def ops(self) -> list[Op]:
        return [Op(f"intake {draw.name}",
                   lambda text=text, name=draw.name, q=queries: intake(
                       text, name, q),
                   lambda res, draw=draw, q=queries: check_intake(
                       res, draw, q))
                for draw, text, queries in self.cases]


def intake(text: str, name: str, queries):
    from ultrashift import dsl, graphs

    g = dsl.parse(text).graphs[name]
    report = graphs.validate_ultragraph(g)
    g.canonical_shapes()
    _cores, cores_saturated = g.cores()
    _closure, closure_saturated = g.range_intersection_closure()
    emitters, complete = g.minimal_infinite_emitters()
    member = [g.is_in_g0(s)[0] for s in queries]
    eps = [g.epsilon(s) for s in queries]
    return g, report, (cores_saturated, closure_saturated, complete), \
        emitters, member, eps


def check_intake(res, draw: Draw, queries):
    g, report, saturated, emitters, member, eps = res
    vfams, efams = draw.expected_graph()
    if g.vertex_families != vfams or \
            tuple(g.edge_families.values()) != efams:
        return "parsed graph differs from the generated one"
    if not report.valid:
        return f"validation found sinks {report.sinks} or empty ranges " \
               f"{report.empty_range_edges}"
    if not all(saturated):
        return f"closure hit its cap: {saturated}"
    for m in emitters:
        counts = [sum(1 for fam, k in draw.edges_in(w)
                      if vertex_set_contains(m.vertices, *fam.src(k)))
                  for w in WINDOWS]
        if not counts[0] < counts[1] < counts[2]:
            return f"emitter {m} emits {counts} edges in growing windows"
        if g.is_in_g0(m.vertices)[0] != "yes":
            return f"emitter {m} is not in the algebra"
        if any(o is not m and o.vertices != m.vertices and
               vertex_set_subset(o.vertices, m.vertices) for o in emitters):
            return f"emitter {m} properly contains another"
    singles = {(m.vertices.entries[0][0], m.vertices.entries[0][1].spans)
               for m in emitters if len(m.vertices.entries) == 1}
    for vf, k in draw.infinite_emitter_vertices():
        if (vf, ((k, k),)) not in singles:
            return f"vertex {vf}[{k}] emits infinitely many edges but is " \
                   "no singleton emitter"
    closure = brute_force_algebra(draw) if draw.finite else None
    for s, got in zip(queries, member):
        if closure is not None:
            members = frozenset((vf, j) for vf, iset in s.entries
                                for lo, hi in iset.spans
                                for j in range(lo, hi + 1))
            want = "yes" if members in closure else "no"
        else:
            want = "yes"  # finite sets and single ranges generate the algebra
        if got != want:
            return f"is_in_g0({s}) is {got}, expected {want}"
    for s, got in zip(queries, eps):
        for fam, k in draw.edges_in(EPS_WINDOW):
            inside = vertex_set_contains(got, fam.name, k)
            if inside != vertex_set_contains(s, *fam.src(k)):
                return f"epsilon({s}) is wrong at {fam.name}[{k}]"
    return None
