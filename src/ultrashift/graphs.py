"""Ultragraphs with piecewise-affine structure over indexed families.

Vertices and edges come in named families indexed by integer sets.  Edge
sources are piecewise affine maps of the edge index; edge ranges are
piecewise unions of a constant vertex set and finitely many affinely
indexed singleton vertices.  Everything the mathematics needs downstream
(emitted edge sets, the closure of range intersections, membership in the
generated vertex-set algebra, minimal infinite emitters) stays exactly
computable in this class.

Key internal notion: a *shape* is a family of vertex sets, either one
constant set, or ``const ∪ {v_{m1(k)}, ...}`` for a parameter ``k`` ranging
over a guard.  Any finite intersection of edge ranges equals an
intersection of case constants together with finitely many extra vertices,
which is what makes the decision procedures below complete for this class
(up to ``CLOSURE_CAP``, the saturation cap).
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .intsets import (
    INFINITE,
    AffineIndexMap,
    IndexSet,
    SymbolicSet,
)

# Finite guards up to this size are expanded edge by edge during
# canonicalization; larger ones stay symbolic and mark closures incomplete.
INSTANTIATE_CAP = 64

# The closure of range intersections stops growing at this many sets and
# is then reported unsaturated; read at call time.
CLOSURE_CAP = 1000

# Query answers are memoized per graph and per map; a memo holding this
# many entries is emptied before it takes another, so walks far from the
# index origin cannot grow it without bound.
EDGE_MEMO_CAP = 1 << 14

_MISS = object()


class Memo(dict):
    """A capped memo: ``store`` empties it first when it holds
    ``EDGE_MEMO_CAP`` answers, a cap read at each call."""

    def store(self, key, value):
        if len(self) >= EDGE_MEMO_CAP:
            self.clear()
        self[key] = value
        return value


def memoized(query):
    """Memoize a graph query, a method or a function whose first argument
    is the graph, in the ``Memo`` ``graph._memos[query name]``, keyed by
    its other positional arguments."""
    name = query.__name__

    @functools.wraps(query)
    def answer(self, *args):
        memo = self._memos[name]
        got = memo.get(args, _MISS)
        if got is _MISS:
            got = memo.store(args, query(self, *args))
        return got
    return answer


class GraphError(ValueError):
    pass


class EdgeRef(NamedTuple):
    """A single edge: family name plus index.  A named tuple, so it hashes
    and compares in C, and it equals its ``(family, index)`` pair."""

    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}[{self.index}]"


@dataclass(frozen=True)
class SourceCase:
    guard: IndexSet
    vfamily: str
    map: AffineIndexMap


@dataclass(frozen=True)
class RangeCase:
    guard: IndexSet
    const: SymbolicSet = SymbolicSet.empty()
    atoms: tuple = ()  # ((vfamily, AffineIndexMap), ...)


@dataclass(frozen=True)
class EdgeFamily:
    name: str
    domain: IndexSet
    source: tuple  # SourceCase, guards partition the domain
    ranges: tuple  # RangeCase, guards partition the domain


@dataclass(frozen=True)
class Shape:
    """A constant vertex set, or a guarded one-parameter family of them."""

    const: SymbolicSet
    guard: IndexSet | None = None
    atoms: tuple = ()
    label: str = field(default="", compare=False)

    def is_const(self) -> bool:
        return self.guard is None

    def __str__(self) -> str:
        if self.guard is None:
            return str(self.const)
        bits = [f"{vf}[{m}]" for vf, m in self.atoms]
        base = str(self.const)[1:-1]
        inner = ", ".join(b for b in [base] + bits if b)
        return "{" + inner + "} for k in " + str(self.guard)


@dataclass(frozen=True)
class MinimalEmitter:
    """An element of the vertex-set algebra that emits infinitely many edges
    and has no proper algebra subset doing the same."""

    vertices: SymbolicSet
    certificate: str = field(default="", compare=False)
    name: str | None = field(default=None, compare=False)

    def display(self) -> str:
        return self.name if self.name else f"tail{self.vertices}"

    def __str__(self) -> str:
        return self.display()


@dataclass
class ValidationReport:
    sinks: SymbolicSet
    empty_range_edges: SymbolicSet
    warnings: list

    @property
    def valid(self) -> bool:
        return self.sinks.is_empty() and self.empty_range_edges.is_empty()


def _check_partition(cases, domain: IndexSet, what: str):
    covered = IndexSet.empty()
    for c in cases:
        if not c.guard.intersect(covered).is_empty():
            raise GraphError(f"{what}: overlapping guards")
        covered = covered.union(c.guard)
    if covered != domain:
        raise GraphError(f"{what}: guards do not cover the index domain")


class Ultragraph:
    """Immutable ultragraph over indexed vertex and edge families.

    Vertex and edge family names share one namespace; index domains are
    arbitrary IndexSets.  Derived data (canonical shapes, closure, minimal
    emitters) is computed lazily and memoized, and so are the per-edge
    answers (source, range, successor edges and their samples, bounded
    successors, emitters inside a range, adjacency of two edges), so a
    graph must not be changed after construction.
    """

    def __init__(self, name: str, vertex_families: dict, edge_families):
        self.name = name
        self.vertex_families = dict(vertex_families)
        self.edge_families = {ef.name: ef for ef in edge_families}
        names = list(self.vertex_families) + list(self.edge_families)
        if len(set(names)) != len(names):
            raise GraphError("family names must be unique within a graph")
        for ef in self.edge_families.values():
            _check_partition(ef.source, ef.domain, f"source of {ef.name}")
            _check_partition(ef.ranges, ef.domain, f"range of {ef.name}")
            for sc in ef.source:
                if sc.vfamily not in self.vertex_families:
                    raise GraphError(f"unknown vertex family {sc.vfamily}")
            for rc in ef.ranges:
                for vf, _ in rc.atoms:
                    if vf not in self.vertex_families:
                        raise GraphError(f"unknown vertex family {vf}")
        self._memos = defaultdict(Memo)  # filled by @memoized queries

    # -- elementary queries --------------------------------------------

    def edge_domain(self, family: str) -> IndexSet:
        return self.edge_families[family].domain

    def has_edge(self, e: EdgeRef) -> bool:
        ef = self.edge_families.get(e.family)
        return ef is not None and ef.domain.contains(e.index)

    def all_vertices(self) -> SymbolicSet:
        return SymbolicSet.of(*self.vertex_families.items())

    def all_edges(self) -> SymbolicSet:
        return SymbolicSet.of(*((f, ef.domain)
                                for f, ef in self.edge_families.items()))

    @memoized
    def bounded_all_edges(self, bound: int, widen: int) -> tuple:
        """``bounded_edges`` of all edges of the graph, as a tuple."""
        return tuple(bounded_edges(self.all_edges(), bound, widen))

    @memoized
    def source(self, e: EdgeRef) -> tuple[str, int]:
        ef = self.edge_families[e.family]
        for sc in ef.source:
            if sc.guard.contains(e.index):
                return sc.vfamily, sc.map.apply(e.index)
        raise GraphError(f"edge {e} outside its family domain")

    @memoized
    def range_of(self, e: EdgeRef) -> SymbolicSet:
        ef = self.edge_families[e.family]
        for rc in ef.ranges:
            if rc.guard.contains(e.index):
                extra = [(vf, IndexSet.of(m.apply(e.index)).intersect(
                    self.vertex_families[vf])) for vf, m in rc.atoms]
                return rc.const.union(SymbolicSet.of(*extra))
        raise GraphError(f"edge {e} outside its family domain")

    def source_in(self, e: EdgeRef, vertices: SymbolicSet) -> bool:
        vf, k = self.source(e)
        return vertices.contains(vf, k)

    @memoized
    def adjacent(self, prev: EdgeRef, nxt: EdgeRef) -> bool:
        """Whether ``nxt`` may follow ``prev`` on a path."""
        return self.source_in(nxt, self.range_of(prev))

    def known_adjacent(self, edges) -> bool:
        """Whether the ``adjacent`` memo already answers every consecutive
        pair of ``edges`` True, read in one pass; False on any miss, so a
        caller then asks pair by pair."""
        memo = self._memos["adjacent"]
        return all(map(memo.get, zip(edges, edges[1:])))

    # -- emitted edges ----------------------------------------------------

    def epsilon(self, vertices: SymbolicSet) -> SymbolicSet:
        """All edges whose source lies in ``vertices``."""
        parts = []
        for ef in self.edge_families.values():
            for sc in ef.source:
                ks = sc.map.preimage(vertices.part(sc.vfamily), sc.guard)
                parts.append((ef.name, ks))
        return SymbolicSet.of(*parts)

    def ranges_union(self, edges: SymbolicSet) -> SymbolicSet:
        """Union of r(e) over a symbolic edge set."""
        parts = []
        for ef in self.edge_families.values():
            part = edges.part(ef.name)
            for rc in ef.ranges:
                ks = part.intersect(rc.guard)
                if ks.is_empty():
                    continue
                parts.extend(rc.const.entries)
                for vf, m in rc.atoms:
                    parts.append((vf, m.image(ks).intersect(
                        self.vertex_families[vf])))
        return SymbolicSet.of(*parts)

    @memoized
    def successor_edges(self, e: EdgeRef) -> SymbolicSet:
        """Edges that may follow ``e`` on a path."""
        return self.epsilon(self.range_of(e))

    @memoized
    def successor_sample(self, e: EdgeRef, k: int) -> tuple:
        """``successor_edges(e).sample(k)`` as a tuple of EdgeRefs."""
        return tuple(EdgeRef(fam, idx)
                     for fam, idx in self.successor_edges(e).sample(k))

    @memoized
    def bounded_successors(self, e: EdgeRef, bound: int,
                           widen: int = 0) -> tuple:
        """``bounded_edges`` of the successor edges of ``e``, as a tuple."""
        return tuple(bounded_edges(self.successor_edges(e), bound, widen))

    def infinite_emitter_vertices(self) -> SymbolicSet:
        """Vertices emitting infinitely many edges.

        With finitely many piecewise cases, only constant source maps over
        infinite guards can pile infinitely many edges on one vertex.
        """
        parts = []
        for ef in self.edge_families.values():
            for sc in ef.source:
                if sc.map.scale == 0 and sc.guard.cardinality() == INFINITE:
                    parts.append((sc.vfamily, IndexSet.of(sc.map.offset)))
        return SymbolicSet.of(*parts)

    # -- canonical shapes -----------------------------------------------

    @memoized
    def canonical_shapes(self) -> tuple[list[Shape], bool]:
        """Range cases rewritten so parameter guards are infinite (or large),
        all atoms have nonzero scale, never land in the constant part, and
        never coincide with each other.  Small finite guards are expanded
        into constant shapes.  Returns (shapes, complete)."""
        shapes: list[Shape] = []
        complete = True
        for ef in self.edge_families.values():
            for rc in ef.ranges:
                label = f"r({ef.name})"
                complete &= self._canon_case(rc, label, shapes)
        return _dedupe_shapes(shapes), complete

    def _canon_case(self, rc: RangeCase, label: str, out: list[Shape]) -> bool:
        guard = rc.guard
        if guard.is_empty():
            return True
        const = rc.const
        atoms = []
        for vf, m in rc.atoms:
            if m.scale == 0:
                v = IndexSet.of(m.offset).intersect(self.vertex_families[vf])
                const = const.union(SymbolicSet.of((vf, v)))
            elif (vf, m) not in atoms:
                atoms.append((vf, m))
        card = guard.cardinality()
        if card != INFINITE and card > INSTANTIATE_CAP:
            # too large to expand; keep symbolic but flag incompleteness
            out.append(Shape(const, guard, tuple(atoms), label))
            return False
        if card != INFINITE:
            for k in guard.members():
                extra = [(vf, IndexSet.of(m.apply(k)).intersect(
                    self.vertex_families[vf])) for vf, m in atoms]
                out.append(Shape(const.union(SymbolicSet.of(*extra)),
                                 label=f"{label}[{k}]"))
            return True
        # expand the finitely many ks where two atoms coincide
        special = IndexSet.empty()
        for (vf1, m1), (vf2, m2) in itertools.combinations(atoms, 2):
            if vf1 != vf2 or m1.scale == m2.scale:
                continue
            diff = m2.offset - m1.offset
            if diff % 2 == 0:
                k = diff // 2 * m1.scale
                if guard.contains(k):
                    special = special.union(IndexSet.of(k))
        for k in special.members():
            extra = [(vf, IndexSet.of(m.apply(k)).intersect(
                self.vertex_families[vf])) for vf, m in atoms]
            out.append(Shape(const.union(SymbolicSet.of(*extra)),
                             label=f"{label}[{k}]"))
        guard = guard.difference(special)
        # atoms are kept where they stay in-domain and out of the constant
        triples = [(vf, m, m.preimage(
            self.vertex_families[vf].difference(const.part(vf)), guard))
            for vf, m in atoms]
        self._split_shape(const, guard, triples, label, out)
        return True

    def _split_shape(self, base_const, guard, atom_triples, label, out):
        """Emit shapes partitioning ``guard`` by which atoms stay alive.

        ``atom_triples`` holds (vfamily, map, alive-index-set); an atom is
        part of the shape only on its alive region.  Small finite regions
        are expanded to constant shapes."""
        regions = [(guard, [])]
        for vf, m, alive in atom_triples:
            regions = [
                r for g0, kept in regions
                for r in ((g0.difference(alive), kept),
                          (g0.intersect(alive), kept + [(vf, m)]))
                if not r[0].is_empty()
            ]
        for g0, kept in regions:
            if not kept:
                if not base_const.is_empty():
                    out.append(Shape(base_const, label=label))
                continue
            card = g0.cardinality()
            if card != INFINITE and card <= INSTANTIATE_CAP:
                for k in g0.members():
                    extra = [(vf, IndexSet.of(m.apply(k))) for vf, m in kept]
                    out.append(Shape(base_const.union(SymbolicSet.of(*extra)),
                                     label=f"{label}[{k}]"))
            else:
                out.append(Shape(base_const, g0, tuple(kept), label))

    # -- closure and algebra membership -----------------------------------

    @memoized
    def cores(self):
        """Closure under intersection of the constant parts of canonical
        shapes.  Every finite intersection of edge ranges equals one of
        these sets plus finitely many vertices, so the cores are the
        infinite skeleton of the generated algebra.

        Returns (list of (SymbolicSet, label), saturated flag)."""
        shapes, complete = self.canonical_shapes()
        seeds: list[tuple[SymbolicSet, str]] = []
        seen: set[SymbolicSet] = set()
        for sh in shapes:
            if not sh.const.is_empty() and sh.const not in seen:
                seen.add(sh.const)
                seeds.append((sh.const, sh.label))
        saturated = complete
        work = list(seeds)
        while work:
            cur, cur_label = work.pop()
            for other, other_label in list(seeds):
                if len(seeds) >= CLOSURE_CAP:
                    saturated = False
                    work = []
                    break
                meet = cur.intersect(other)
                if meet.is_empty() or meet in seen:
                    continue
                seen.add(meet)
                item = (meet, f"{cur_label} & {other_label}")
                seeds.append(item)
                work.append(item)
        return seeds, saturated

    @memoized
    def range_intersection_closure(self):
        """Closure of the canonical range shapes under pairwise
        intersection, computed schematically over the index parameters.
        Returns (list of Shape, saturated flag)."""
        shapes, complete = self.canonical_shapes()
        pool: list[Shape] = list(shapes)
        seen = {(s.const, s.guard, s.atoms) for s in pool}
        saturated = complete
        frontier = list(pool)
        while frontier and saturated:
            nxt: list[Shape] = []
            for a in frontier:
                for b in pool:
                    for c in self._shape_intersections(a, b):
                        sig = (c.const, c.guard, c.atoms)
                        if sig in seen:
                            continue
                        if len(pool) >= CLOSURE_CAP:
                            saturated = False
                            break
                        seen.add(sig)
                        pool.append(c)
                        nxt.append(c)
                    if not saturated:
                        break
                if not saturated:
                    break
            frontier = nxt
        return pool, saturated

    def _survive_in(self, atoms, other_const: SymbolicSet, guard: IndexSet):
        """Alive regions for atoms that must land inside another constant."""
        return [(vf, m, m.preimage(
            other_const.part(vf).intersect(self.vertex_families[vf]), guard))
            for vf, m in atoms]

    def _shape_intersections(self, a: Shape, b: Shape) -> list[Shape]:
        out: list[Shape] = []
        label = f"{a.label} & {b.label}"
        if a.is_const() and b.is_const():
            meet = a.const.intersect(b.const)
            if not meet.is_empty():
                out.append(Shape(meet, label=label))
            return out
        if b.is_const():
            a, b = b, a
        if a.is_const():
            # constant against parametric: atoms survive where they land in a
            self._split_shape(b.const.intersect(a.const), b.guard,
                              self._survive_in(b.atoms, a.const, b.guard),
                              label, out)
            return out
        # parametric against parametric; for independent parameters, one
        # side's atoms can only survive inside the other side's constant
        core = a.const.intersect(b.const)
        if not core.is_empty():
            out.append(Shape(core, label=label))
        self._split_shape(core, a.guard,
                          self._survive_in(a.atoms, b.const, a.guard),
                          label, out)
        self._split_shape(core, b.guard,
                          self._survive_in(b.atoms, a.const, b.guard),
                          label, out)
        # tied parameters: an atom of a coincides with an atom of b
        same_shape = (a.const, a.guard, a.atoms) == (b.const, b.guard, b.atoms)
        for i, (vf1, m1) in enumerate(a.atoms):
            for j, (vf2, m2) in enumerate(b.atoms):
                if vf1 != vf2 or (same_shape and i == j):
                    continue
                phi = m2.inverse().compose(m1)  # k = phi(jj) ties the params
                guard = a.guard.intersect(
                    phi.preimage(b.guard, IndexSet.all()))
                if same_shape:
                    fix = _fixpoint(phi)
                    if fix is not None:
                        guard = guard.difference(IndexSet.of(fix))
                if guard.is_empty():
                    continue
                triples = [(vf1, m1, guard)]
                triples += self._survive_in(
                    a.atoms[:i] + a.atoms[i + 1:], b.const, guard)
                triples += self._survive_in(
                    [(vf, m.compose(phi))
                     for vf, m in b.atoms[:j] + b.atoms[j + 1:]],
                    a.const, guard)
                self._split_shape(core, guard, triples, label, out)
        return _dedupe_shapes(out)

    def is_in_g0(self, vertices: SymbolicSet):
        """Decide membership in the algebra generated by singleton vertices
        and edge ranges under finite unions and nonempty intersections.

        Returns ('yes', witness), ('no', reason) or ('unknown', reason).
        A 'yes' witness is (cores used, finite leftover vertex set)."""
        if vertices.is_empty():
            return "no", "the empty set is not in the algebra"
        if not vertices.subset_of(self.all_vertices()):
            return "no", "not a subset of the vertex set"
        cores, saturated = self.cores()
        used = []
        covered = SymbolicSet.empty()
        for core, label in cores:
            if core.subset_of(vertices) and not core.subset_of(covered):
                used.append((core, label))
                covered = covered.union(core)
        rest = vertices.difference(covered)
        if rest.is_finite():
            pruned = []
            acc = SymbolicSet.empty()
            for core, label in sorted(used, key=lambda c: -_size_key(c[0])):
                if not core.subset_of(acc):
                    pruned.append((core, label))
                    acc = acc.union(core)
            rest = vertices.difference(acc)
            return "yes", (pruned, rest)
        if saturated:
            return "no", ("infinitely many vertices remain outside every "
                          "achievable union of range intersections")
        return "unknown", "closure did not saturate within the cap"

    # -- minimal infinite emitters ----------------------------------------

    @memoized
    def minimal_infinite_emitters(self):
        """All minimal infinite emitters, with certificates.

        Candidates are singleton infinite-emitter vertices plus closure
        cores with infinite emitted-edge sets; any infinite emitter in the
        algebra contains one of these, so the subset-minimal candidates are
        exactly the minimal infinite emitters (complete when the closure
        saturated).  Returns (list of MinimalEmitter, complete flag)."""
        cores, saturated = self.cores()
        cands: list[tuple[SymbolicSet, str]] = []
        for vf, k in self.infinite_emitter_vertices().members():
            cands.append((SymbolicSet.singleton(vf, k),
                          f"vertex {vf}[{k}] emits infinitely many edges"))
        for core, label in cores:
            if self.epsilon(core).cardinality() == INFINITE:
                cands.append((core, f"range intersection {label}"))
        uniq: dict[SymbolicSet, str] = {}
        for s, cert in cands:
            uniq.setdefault(s, cert)
        result = []
        for s, cert in uniq.items():
            if any(o.proper_subset_of(s) for o in uniq if o != s):
                continue
            result.append(MinimalEmitter(s, cert))
        result.sort(key=lambda m: str(m.vertices))
        return result, saturated

    def minimal_emitters_in(self, vertices: SymbolicSet):
        """Minimal infinite emitters contained in the given vertex set."""
        emitters, complete = self.minimal_infinite_emitters()
        return [m for m in emitters if m.vertices.subset_of(vertices)], complete

    @memoized
    def range_emitters(self, e: EdgeRef):
        """The minimal infinite emitters contained in r(e), as a tuple."""
        return tuple(self.minimal_emitters_in(self.range_of(e))[0])

    def __repr__(self) -> str:
        return f"Ultragraph({self.name!r})"


def bounded_edges(edges: SymbolicSet, bound: int,
                  widen: int = 0) -> list[EdgeRef]:
    """The edges of ``edges`` with index in [-bound, bound].  When there
    are none, the bound is multiplied by four, at most ``widen`` times."""
    for _ in range(widen + 1):
        out = [EdgeRef(fam, k)
               for fam, iset in edges.entries
               for k in iset.intersect(IndexSet.between(-bound, bound))
               .members()]
        if out:
            return out
        bound *= 4
    return []


def _fixpoint(m: AffineIndexMap) -> int | None:
    # solve m(k) == k; identity maps never reach here because duplicate
    # atoms are removed during canonicalization
    if m.scale == 1:
        return None
    if m.offset % 2 != 0:
        return None
    return m.offset // 2


def _dedupe_shapes(shapes: list[Shape]) -> list[Shape]:
    seen = set()
    out = []
    for s in shapes:
        sig = (s.const, s.guard, s.atoms)
        if sig not in seen:
            seen.add(sig)
            out.append(s)
    return out


def _size_key(s: SymbolicSet) -> float:
    c = s.cardinality()
    return 10 ** 9 if c == INFINITE else c


def validate_ultragraph(g: Ultragraph) -> ValidationReport:
    """Report sink vertices and edges with empty ranges."""
    emitted = []
    for ef in g.edge_families.values():
        for sc in ef.source:
            emitted.append((sc.vfamily, sc.map.image(sc.guard)))
    sinks = g.all_vertices().difference(SymbolicSet.of(*emitted))
    empty_edges = []
    warnings = []
    for ef in g.edge_families.values():
        for rc in ef.ranges:
            if not rc.const.is_empty():
                continue
            alive = IndexSet.empty()
            for vf, m in rc.atoms:
                alive = alive.union(
                    m.preimage(g.vertex_families[vf], rc.guard))
            dead = rc.guard.difference(alive)
            if not dead.is_empty():
                empty_edges.append((ef.name, dead))
        for rc in ef.ranges:
            for vf, m in rc.atoms:
                escaped = rc.guard.difference(
                    m.preimage(g.vertex_families[vf], rc.guard))
                if not escaped.is_empty() and (not rc.const.is_empty()
                                               or len(rc.atoms) > 1):
                    warnings.append(
                        f"range atom {vf}[{m}] of {ef.name} leaves the "
                        f"vertex domain for k in {escaped}")
    return ValidationReport(sinks, SymbolicSet.of(*empty_edges), warnings)
