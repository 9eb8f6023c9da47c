"""Shift commuting maps between ultragraph shifts and their checkers.

A map is presented either by a partition into classes keyed by target
symbols (schema classes enable exact symbolic analysis, oracle classes
fall back to bounded sampling) or by a first-coordinate rule applied along
the shift orbit.  Evaluation resolves finite and eventually periodic
inputs exactly, because their shift orbits are eventually periodic.

The checkers implement the conditions characterizing continuous shift
commuting maps: openness of edge-symbol classes, the excluded-set
conditions at finite points, the orbit condition at points with infinite
constant image, the finite extension-edge sets, and the length-preserving
combination.  Every verdict carries its bounds; "fails" always carries a
concrete, re-checkable witness.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

from .definable import (PcSchema, LitAtom, VarAtom, expand_rep,
                        match_atoms, match_schema)
from . import graphs
from .graphs import EdgeRef, MinimalEmitter, Ultragraph
from .intsets import AffineIndexMap, IDENTITY_MAP, INFINITE, IndexSet, SymbolicSet
from .paths import Block
from .points import (
    WITNESS_INDEX_BOUND,
    PointError,
    FinitePoint,
    PeriodicPoint,
    Point,
    RepeatFamily,
    ConvergenceBounds,
    block_witness,
    check_convergence,
    coordinate,
    hard_problems,
    length,
    orbit_closure,
    prefix,
    prepend,
    shift,
    shift_n,
)
from .verdicts import FAILS, HOLDS, NOT_APPLICABLE, UNKNOWN, Verdict

# edges sampled where a map is known only by sampling (oracle classes,
# rule maps); items ii, iia, iib and length-preserving echo it as "tries"
SAMPLE_TRIES = 24
# shifts after which validate_partition finds an emitter class still
# invariant; it echoes it as "depth"
PARTITION_DEPTH = 8
INCOMPLETE = "; the minimal emitter inventory is incomplete"


class MapError(ValueError):
    pass


class PartitionError(MapError):
    """A point matched no class or several; carries all matches."""

    def __init__(self, x, matches):
        self.point = x
        self.matches = matches
        what = "no class" if not matches else f"classes {matches}"
        super().__init__(f"{what} matched {x}")


class SchemaClass:
    """A class given by pseudo-cylinder schemas.

    With ``symbol`` fixed it assigns that one target symbol.  With
    ``family`` it covers the symbols ``family[index_map(param)]`` for the
    parameter running over ``index_domain``; every body schema must then
    use the parameter.  A generalized cylinder D enters a class as the
    schemas ``decompose_cylinder(g, D).positive``."""

    def __init__(self, body, symbol=None, family: str | None = None,
                 index_domain: IndexSet | None = None,
                 index_map: AffineIndexMap = IDENTITY_MAP,
                 label: str = ""):
        if (symbol is None) == (family is None):
            raise MapError("exactly one of symbol or family is required")
        self.body = tuple(body)
        for s in self.body:
            if not isinstance(s, PcSchema):
                raise MapError(
                    f"class bodies hold schemas, not {s}; a cylinder D "
                    f"enters as decompose_cylinder(g, D).positive")
        if family is not None:
            if index_domain is None:
                raise MapError("family classes need an index domain")
            if any(s.param_domain is None for s in self.body):
                raise MapError(
                    "family class schemas must use the free parameter")
        self.symbol = symbol
        self.family = family
        self.index_domain = index_domain
        self.index_map = index_map
        self.label = label or (str(symbol) if symbol is not None
                               else f"{family}[...]")

    def is_emitter_class(self) -> bool:
        return isinstance(self.symbol, MinimalEmitter)

    def symbols_for(self, x: Point) -> list:
        out = []
        for item in self.body:
            m = match_schema(item, x)
            if m is None:
                continue
            if self.symbol is not None:
                out.append(self.symbol)
            elif m.param is not None and self.index_domain.contains(m.param):
                out.append(EdgeRef(self.family,
                                   self.index_map.apply(m.param)))
        uniq = []
        for s in out:
            if s not in uniq:
                uniq.append(s)
        return uniq

    def covers_symbol(self, sym) -> IndexSet | None:
        """For a family class, the parameter values mapping to ``sym``;
        for a fixed class, all of Z (``IndexSet.all()``) when the symbol
        matches; None when the class never gives ``sym``."""
        if self.symbol is not None:
            return IndexSet.all() if sym == self.symbol else None
        if not isinstance(sym, EdgeRef) or sym.family != self.family:
            return None
        j = self.index_map.solve(sym.index)
        if j is None or not self.index_domain.contains(j):
            return None
        return IndexSet.of(j)

    def __str__(self) -> str:
        return f"class {self.label}"


class OracleClass:
    """A class given by a pure membership predicate, fixed target symbol."""

    def __init__(self, symbol, member, label: str = ""):
        self.symbol = symbol
        self.member = member
        self.label = label or str(symbol)

    def is_emitter_class(self) -> bool:
        return isinstance(self.symbol, MinimalEmitter)

    def symbols_for(self, x):
        return [self.symbol] if self.member(x) else []

    def covers_symbol(self, sym):
        return IndexSet.all() if sym == self.symbol else None

    def __str__(self) -> str:
        return f"oracle class {self.label}"


class MapPresentation:
    """A shift commuting map defined coordinatewise by a partition.

    ``window`` is the last coordinate any body schema reads, so the first
    image symbol of a point depends on its first ``window`` coordinates
    only; it is None when a class is an oracle or a schema repeats an
    atom.  ``symbol_at`` walks the classes in order.  The map owns one
    table (a ``graphs.Memo``) that every evaluation reads and fills: first
    image symbols by window when the map has a window, image points by
    whole point when it has none.  The classes are fixed once the map is
    built, so what the table holds stays true for the map's lifetime."""

    def __init__(self, source: Ultragraph, target: Ultragraph, classes,
                 label: str = "map"):
        self.source = source
        self.target = target
        self.classes = tuple(classes)
        self.label = label
        self.window = _schema_window(self.classes)
        self.table = graphs.Memo()

    def symbol_at(self, x: Point):
        found = []
        for c in self.classes:
            for sym in c.symbols_for(x):
                found.append((c, sym))
        if len(found) != 1:
            raise PartitionError(x, [str(c) for c, _ in found])
        return found[0][1]

    def __str__(self) -> str:
        return self.label


def _schema_window(classes) -> int | None:
    """The last coordinate a body schema reads, or None when a class is not
    a schema class or a schema has a repetition (its reach is unbounded)."""
    last = 0
    for cls in classes:
        if not isinstance(cls, SchemaClass):
            return None
        for s in cls.body:
            if s.has_rep():
                return None
            if s.atoms:
                last = max(last, s.fixed_window()[1])
    return last


class RuleMap:
    """A shift commuting map given by a first-coordinate rule.  A rule
    reads the whole point, so the map has no window, and its one table
    holds image points by whole point; the rule must be a function of the
    point alone."""

    def __init__(self, source: Ultragraph, target: Ultragraph, rule,
                 label: str = "rule map"):
        self.source = source
        self.target = target
        self.rule = rule
        self.classes = ()
        self.window = None
        self.table = graphs.Memo()
        self.label = label

    def symbol_at(self, x: Point):
        return self.rule(x)

    def __str__(self) -> str:
        return self.label


def class_membership_oracle(phi, sym):
    """The set of points the map sends to ``sym`` first, as a predicate."""
    def member(x: Point) -> bool:
        try:
            return phi.symbol_at(x) == sym
        except PartitionError:
            return False
    return member


def _try_point(g: Ultragraph, syms: tuple):
    """A valid point carrying the given symbols at position 1, or None.

    ``block_witness`` extends a block of edges from its last edge alone,
    so its point is the block's other edges followed by the point of that
    last edge, and its problems are the block's pairs and that point's.
    When the graph's ``adjacent`` memo already answers every pair of the
    block True, the answer for the last edge, memoized per graph, is
    therefore the answer for the block; any other block is built and
    validated in full."""
    last = syms[-1]
    if not isinstance(last, MinimalEmitter) and g.known_adjacent(syms):
        w = _edge_point(g, last)
        return None if w is None else prepend(tuple(syms[:-1]), w)
    return _valid_witness(g, syms)


@graphs.memoized
def _edge_point(g: Ultragraph, e: EdgeRef):
    """``_try_point(g, (e,))``, kept in the graph's memos."""
    return _valid_witness(g, (e,))


def _valid_witness(g: Ultragraph, syms: tuple):
    w = block_witness(g, Block(tuple(syms)), WITNESS_INDEX_BOUND)
    return None if w is None or hard_problems(g, w) else w


# -- evaluation ----------------------------------------------------------------


def eval_map(phi, x: Point) -> Point:
    """The image of x: the map applied along the shift orbit of x.

    Every point is finite or eventually periodic, so its orbit reaches a
    fixed point or closes a cycle (``orbit_closure``), and the image
    resolves exactly: a finite point (when an emitter symbol appears, which
    must then persist) or an eventually periodic point, whose first
    coordinates are the orbit's symbols.  Every call reads the map's one
    table.  A map with a window reads each step's symbol by its window
    (``_window_symbols``).  A map without a window returns a stored image
    of x as it is; otherwise it walks the orbit, splices on a stored image
    of a shift, and stores the image of x.  A periodic image whose pairs
    of consecutive symbols the target's ``adjacent`` memo already answers
    True is a point of the target; any other image is validated in full."""
    m, steps = orbit_closure(x)
    table = phi.table
    if phi.window is None:
        key = _point_key(x)
        known = table.get(key)
        if known is not None:
            return known
        syms = _orbit_symbols(phi, x, steps)
    else:
        syms = _window_symbols(phi, x, steps)
    emitter_at = next((i for i, s in enumerate(syms)
                       if isinstance(s, MinimalEmitter)), None)
    if emitter_at is not None:
        tail = syms[emitter_at]
        # once the orbit closes at (m, m + p), checking the computed symbols
        # checks all; the cycle's symbols from m on come back after the
        # emitter, so they must be the tail as well
        if any(syms[j] != tail for j in range(min(emitter_at, m), len(syms))):
            raise MapError(
                f"emitter symbol {tail} at coordinate {emitter_at + 1} does "
                f"not persist: the class is not shift invariant on {x}")
        out = FinitePoint(tuple(syms[:emitter_at]), tail)
        _check_output(phi.target, out)
        if length(x) != INFINITE and length(x) < emitter_at:
            raise MapError("image is longer than a finite input whose tail "
                           "maps to a length-zero point")
    else:
        out = PeriodicPoint(tuple(syms[:m]), tuple(syms[m:steps]))
        # the row's consecutive pairs are those of the image's preamble and
        # cycle with its wrap, whatever canonical form the image takes
        if not phi.target.known_adjacent(syms + [syms[m]]):
            _check_output(phi.target, out)
    if phi.window is None:
        table.store(key, out)
    return out


def _point_key(x: Point):
    """A point as a key of an image table: equal finite points may name
    their tails differently, and a rule may hand the tail back, so the
    name is part of the key."""
    return x if isinstance(x, PeriodicPoint) else \
        (x, getattr(x.tail, "name", None))


def _orbit_symbols(phi, x: Point, steps: int) -> list:
    """The first image symbols of x and its next ``steps - 1`` shifts, for
    a map without a window.  The walk ends at the first shift whose image
    the map's table holds: only images the map could evaluate are stored,
    so their coordinates are the symbols the walk would ask for."""
    syms: list = []
    cur = x
    for i in range(steps):
        if i:
            known = phi.table.get(_point_key(cur))
            if known is not None:
                # the image of x is syms followed by the image of its i-th
                # shift, whose walk covers the remaining steps
                return syms + list(prefix(known, steps - i))
        syms.append(phi.symbol_at(cur))
        cur = shift(cur)
    return syms


def _window_symbols(phi, x: Point, steps: int) -> list:
    """The first image symbols of x and its next ``steps - 1`` shifts, for
    a map with a window w: the symbol at step i depends on the coordinates
    x_{i+1}..x_{i+w} only, so the first steps + w - 1 coordinates are read
    once, every step's window is looked up in the map's table in one pass,
    and a shifted point is built only for a window not in the table, in
    order of the steps."""
    w, table = phi.window, phi.table
    coords = prefix(x, steps + w - 1)
    # with w = 0 no schema reads a coordinate and every key is ()
    keys = list(zip(*(coords[j:j + steps] for j in range(w)))) if w \
        else [()] * steps
    syms = list(map(table.get, keys))
    if None in syms:
        cur, at = x, 0  # the shift of x built last, and how far it is
        for i in range(syms.index(None), steps):
            if syms[i] is not None:
                continue
            # a window missed twice in this call is stored at its first
            syms[i] = table.get(keys[i])
            if syms[i] is None:
                for _ in range(i - at):
                    cur = shift(cur)
                at = i
                syms[i] = table.store(keys[i], phi.symbol_at(cur))
    return syms


def _check_output(h: Ultragraph, out: Point) -> None:
    problems = hard_problems(h, out)
    if problems:
        raise MapError(f"image {out} is not a point of the target shift: "
                       + "; ".join(problems))


def eval_resolved(phi, x: Point) -> Point:
    """``eval_map`` under the older name that ``bench/wl_gsbc.py`` reads."""
    return eval_map(phi, x)


# -- partition validation -------------------------------------------------------


def validate_partition(phi, samples) -> Verdict:
    """Sampled check that the classes are pairwise disjoint and covering,
    and that emitter classes are invariant along the shift orbit."""
    if not phi.classes:
        return Verdict("partition", NOT_APPLICABLE,
                       "rule maps have no explicit classes")
    for x in samples:
        try:
            sym = phi.symbol_at(x)
        except PartitionError as err:
            return Verdict("partition", FAILS, str(err), x)
        if isinstance(sym, MinimalEmitter):
            cur = x
            for _ in range(PARTITION_DEPTH):
                cur = shift(cur)
                try:
                    again = phi.symbol_at(cur)
                except PartitionError as err:
                    return Verdict("partition", FAILS, str(err), cur)
                if again != sym:
                    return Verdict(
                        "partition", FAILS,
                        f"class of {sym} is not shift invariant", x)
    return Verdict("partition", HOLDS, f"{len(samples)} samples",
                   bounds={"samples": len(samples),
                           "depth": PARTITION_DEPTH})


# -- commutation ------------------------------------------------------------------


def check_commuting(phi, samples) -> Verdict:
    """Whether the map commutes with the shift on the samples.

    A map with ``symbol_at`` (a presentation or a ``RuleMap``) reads
    coordinate i of an image as ``symbol_at`` of the (i-1)-th shift, so
    ``Φ(σx) = σΦ(x)`` is an identity and the shift of a point of the
    target is one too: each sample is evaluated once, at x, and a
    ``MapError`` from its image is the only way the check goes wrong."""
    for x in samples:
        eval_map(phi, x)
    return Verdict("commuting", HOLDS,
                   "Φ(σx) = σΦ(x) by construction: coordinate i of an "
                   "image is symbol_at of the (i-1)-th shift, and every "
                   "sample's image resolved",
                   bounds={"samples": len(samples)}, exact=True)


# -- first-extension analysis ------------------------------------------------------


@dataclass
class EdgeConstraint:
    """First-extension edges leading into a class, as a symbolic set.

    ``kind`` records the approximation: "exact" sets are the true
    extension edges, "over" sets contain every one of them, "under" sets
    were found by sampling and may miss edges, and "mixed" sets join
    sampled parts to symbolic ones."""

    edges: SymbolicSet
    kind: str

    @property
    def exact(self) -> bool:
        return self.kind == "exact"


def _schema_first_edges(
        g: Ultragraph, s: PcSchema, prefix: tuple,
        param_restrict: IndexSet | None) -> EdgeConstraint | None:
    """Edges e for which some point with the given path prefix then e can
    match the schema."""
    n = len(prefix)
    dom = s.param_domain
    if param_restrict is not None and dom is not None:
        dom = dom.intersect(param_restrict)
        if dom.is_empty():
            return None
    if s.anchor > n + 1:
        # the window only constrains deeper coordinates; any first edge
        # might admit a matching continuation
        return EdgeConstraint(g.all_edges(), "over")
    result = SymbolicSet.empty()
    exact = True
    # expand a repetition as far as the window interacts with positions
    # 1..n+1; longer repetitions repeat the same pivot
    for aligned in expand_rep(s, n + 2 - s.anchor):
        got = _aligned_first_edges(g, aligned, prefix, dom)
        if got is None:
            continue
        edges, ex = got
        result = result.union(edges)
        exact = exact and ex
    if result.is_empty() and exact:
        return None
    return EdgeConstraint(result, "exact" if exact else "over")


def _aligned_first_edges(g: Ultragraph, s: PcSchema, prefix: tuple,
                         dom: IndexSet | None):
    """(edges, exact) at coordinate len(prefix) + 1 for a schema without
    repetitions, or None when no point through the prefix matches it."""
    n = len(prefix)
    inside = s.atoms[:n + 1 - s.anchor]
    got = match_atoms(dom, inside, FinitePoint(prefix), s.anchor)
    if got is None:
        return None
    if len(inside) == len(s.atoms):
        # schema satisfied inside the prefix: any extension edge works
        return g.all_edges(), True
    if got.param is not None:
        dom = IndexSet.of(got.param)
    edges = _atom_edges(g, s.atoms[len(inside)], dom)
    if edges.is_empty():
        return None
    return edges, s.anchor + len(s.atoms) == n + 2


def _atom_edges(g: Ultragraph, atom, dom: IndexSet | None) -> SymbolicSet:
    """The edges of g the atom admits at one coordinate, with the free
    parameter in ``dom``; none for an emitter literal or a repetition."""
    if isinstance(atom, LitAtom) and isinstance(atom.symbol, EdgeRef):
        return SymbolicSet.singleton(*atom.symbol)
    if isinstance(atom, VarAtom) and atom.family in g.edge_families:
        return SymbolicSet.of((atom.family, atom.map.image(dom).intersect(
            g.edge_domain(atom.family))))
    return SymbolicSet.empty()


def first_edges_into_class(phi, cls, prefix: tuple,
                           param_restrict: IndexSet | None = None
                           ) -> EdgeConstraint:
    """First-extension edges that can lead into the class after ``prefix``.

    Symbolic and mostly exact for schema classes; sampled (and flagged
    inexact) for oracle classes."""
    g = phi.source
    if isinstance(cls, OracleClass):
        found = []
        eps = g.all_edges()
        for fam, idx in eps.sample(SAMPLE_TRIES):
            e = EdgeRef(fam, idx)
            w = _try_point(g, tuple(prefix) + (e,))
            if w is not None and cls.member(w):
                found.append((fam, IndexSet.of(idx)))
        return EdgeConstraint(SymbolicSet.of(*found), "under")
    total = SymbolicSet.empty()
    exact = True
    for item in cls.body:
        got = _schema_first_edges(g, item, prefix, param_restrict)
        if got is None:
            continue
        total = total.union(got.edges)
        exact = exact and got.exact
    if prefix:
        # only edges continuing the path are real extensions; sinkless
        # graphs then always admit a completion, keeping exactness
        total = total.intersect(g.successor_edges(prefix[-1]))
    return EdgeConstraint(total, "exact" if exact else "over")


# -- good/bad symbol bookkeeping -----------------------------------------------


@dataclass
class SymbolSet:
    """A set of target symbols: a symbolic edge set plus emitters."""

    edges: SymbolicSet
    emitters: tuple = ()

    def contains(self, sym) -> bool:
        if isinstance(sym, MinimalEmitter):
            return any(sym == m for m in self.emitters)
        return self.edges.contains(sym.family, sym.index)


def _outside(good: SymbolSet):
    """The symbols outside ``good``, as ``_reaching_edges`` reads them: in
    a family class the parameter values whose symbol is outside, in a
    fixed class the full line when its symbol is."""
    def bad_params(cls) -> IndexSet | None:
        if cls.symbol is not None:
            return None if good.contains(cls.symbol) else IndexSet.all()
        bad = cls.index_domain.difference(cls.index_map.preimage(
            good.edges.part(cls.family), IndexSet.all()))
        return None if bad.is_empty() else bad
    return bad_params, lambda sym: not good.contains(sym)


def _equal_to(c: EdgeRef):
    """The one symbol c, as ``_reaching_edges`` reads it."""
    return lambda cls: cls.covers_symbol(c), lambda sym: sym == c


def _reaching_edges(phi, prefix: tuple, tail: MinimalEmitter, params_of,
                    counts) -> EdgeConstraint:
    """Extension edges after (prefix, tail) whose continuations can map to
    a first symbol the check counts: over-approximated through the classes
    for which ``params_of(cls)`` is not None (in a family class, the
    parameter values that count), and for a rule map under-approximated by
    reading ``counts`` at concrete points through sampled edges."""
    eps = phi.source.epsilon(tail.vertices)
    if not phi.classes:
        found = [(fam, IndexSet.of(idx))
                 for fam, idx in eps.sample(SAMPLE_TRIES)
                 if _witness_through_edge(phi, prefix, EdgeRef(fam, idx),
                                          counts, tries=4) is not None]
        return EdgeConstraint(SymbolicSet.of(*found), "under")
    total = SymbolicSet.empty()
    kinds = set()
    for cls in phi.classes:
        params = params_of(cls)
        if params is None:
            continue
        restrict = None if cls.symbol is not None else params
        got = first_edges_into_class(phi, cls, prefix, restrict)
        total = total.union(got.edges)
        kinds.add(got.kind)
    # a sampled class may hide edges, so the union is no longer a
    # certified cover
    kind = "mixed" if "under" in kinds else \
        "over" if "over" in kinds else "exact"
    return EdgeConstraint(total.intersect(eps), kind)


def _first_symbols(phi, prefix: tuple, edges: SymbolicSet, count: int):
    """(e, point, first image symbol) for up to ``count`` sampled edges e,
    the point being a valid point through ``prefix + e``; edges without
    such a point, or whose point the map cannot place, are skipped."""
    for fam, idx in edges.sample(count):
        e = EdgeRef(fam, idx)
        w = _try_point(phi.source, tuple(prefix) + (e,))
        if w is None:
            continue
        try:
            sym = phi.symbol_at(w)
        except MapError:
            continue
        yield e, w, sym


def _witness_through_edge(phi, prefix: tuple, e: EdgeRef, counts,
                          tries: int = 12):
    """A concrete point through ``prefix + e`` and its first image symbol,
    which the check counts, verified by direct evaluation: the point
    through ``prefix + e`` first, then points through it and a sampled
    successor edge."""
    through = tuple(prefix) + (e,)
    for _, w, sym in itertools.chain(
            _first_symbols(phi, prefix, SymbolicSet.singleton(*e), 1),
            _first_symbols(phi, through, phi.source.successor_edges(e),
                           tries)):
        if counts(sym):
            return w, sym
    return None


# -- theorem-condition checkers ---------------------------------------------------


def check_csc_item_i(phi) -> Verdict:
    """Certify that every edge-symbol class is a union of generalized
    cylinders.

    Accepted per body element: anchored at the first coordinate with an
    edge-only pattern (each instance is then a full cylinder over its
    path), or an emitter-ended pattern whose sibling schemas cover all but
    finitely many extension edges (the finite remainder becoming the
    excluded set).  Oracle-presented edge classes
    give 'unknown'."""
    g = phi.source
    if not phi.classes:
        return Verdict("csc-item-i", UNKNOWN, "no explicit classes")
    status, detail = HOLDS, []
    for cls in phi.classes:
        if cls.is_emitter_class():
            continue
        if isinstance(cls, OracleClass):
            status = UNKNOWN if status == HOLDS else status
            detail.append(f"{cls}: oracle-presented, cannot certify")
            continue
        for item in cls.body:
            ok, why = _certify_schema_open(g, cls, item)
            if ok:
                continue
            return Verdict("csc-item-i", FAILS,
                           f"{cls}: {why}", item)
    return Verdict("csc-item-i", status, "; ".join(detail) or
                   "every class body certified as a union of cylinders")


def _certify_schema_open(g: Ultragraph, cls, s: PcSchema):
    if not s.atoms or (s.param_domain is not None and
                       s.param_domain.is_empty()):
        return True, "empty"
    if s.anchor != 1:
        return False, ("anchored past the first coordinate, not certifiable "
                       "as a union of cylinders")
    kinds = list(s.atoms)
    emitter_lits = [i for i, a in enumerate(kinds)
                    if isinstance(a, LitAtom) and
                    isinstance(a.symbol, MinimalEmitter)]
    if not emitter_lits:
        return True, "edge-only anchored pattern"
    first = emitter_lits[0]
    # a trailing constant run of one emitter pins the same set as a single
    # trailing emitter symbol
    run_ok = emitter_lits == list(range(first, len(kinds))) and \
        len({kinds[i].symbol for i in emitter_lits}) == 1
    if not run_ok:
        return False, "emitter symbols must form one trailing run"
    B = kinds[first].symbol
    prefix = tuple(kinds[:first])
    if any(not isinstance(a, (LitAtom, VarAtom)) for a in prefix):
        return False, "repetitions before an emitter are not certifiable"
    reads = _reads_param(prefix)
    values = [0]  # a head that reads no parameter is one edge path
    if reads:
        # only a sibling whose head reads no parameter adds infinitely many
        # edges, and its head is the pattern's at one value at most; every
        # other value gives the same finiteness, so read one more of them
        found = (match_atoms(s.param_domain, prefix,
                             FinitePoint(_instance(t.atoms[:-1], 0)), 1)
                 for t in cls.body
                 if t.anchor == 1 and len(t.atoms) == len(prefix) + 1 and
                 not t.has_rep() and not _reads_param(t.atoms[:-1]))
        special = sorted({m.param for m in found if m is not None})
        values = [j for j in s.param_domain.sample(len(special) + 1)
                  if j not in special][:1] + special
    excluded = SymbolicSet.empty()
    for j in values:
        # in a family class only the siblings' instances at the pattern's
        # value give its symbol
        params = IndexSet.of(j) if reads and cls.family is not None \
            else IndexSet.all()
        covered = _sure_next_edges(g, cls, _instance(prefix, j), params)
        missing = g.epsilon(B.vertices).difference(covered)
        if not missing.is_finite():
            return False, (f"emitter-ended pattern leaves infinitely many "
                           f"extension edges uncovered ({missing})")
        excluded = excluded.union(missing)
    return True, ("emitter-ended pattern with sibling coverage; "
                  f"excluded set {excluded}")


def _reads_param(atoms) -> bool:
    return any(isinstance(a, VarAtom) for a in atoms)


def _instance(atoms, j: int) -> tuple:
    """The edges that edge-only atoms name at parameter value j."""
    return tuple(a.symbol if isinstance(a, LitAtom)
                 else EdgeRef(a.family, a.map.apply(j)) for a in atoms)


def check_genchl_iia(phi, x_bar: FinitePoint) -> Verdict:
    """At a finite point with length-zero image, all but finitely many
    extension edges must keep the image inside the basic neighborhood of
    the image tail.  Returns the minimal certified excluded set."""
    h = phi.target
    img = eval_map(phi, x_bar)
    if length(img) != 0:
        return Verdict("genchl-iia", NOT_APPLICABLE,
                       f"image has length {length(img)}")
    B = img.tail
    good = SymbolSet(h.epsilon(B.vertices), (B,))
    return _escape_verdict("genchl-iia", phi, x_bar.path, x_bar.tail,
                           *_outside(good), {"tries": SAMPLE_TRIES})


def _escape_verdict(check: str, phi, prefix: tuple, tail: MinimalEmitter,
                    params_of, counts, bounds: dict) -> Verdict:
    """The verdict on the extension edges after (prefix, tail) that can map
    to a symbol the check counts (``_reaching_edges``).  It holds when
    finitely many do (the witness is that set), and fails when infinitely
    many do, confirmed by three concrete points through the prefix on
    distinct edges among seven sampled from the set; the witness holds
    the prefix, the set and those (point, first image symbol) examples.
    A rule map's sampled set holds only when it is empty."""
    bad = _reaching_edges(phi, prefix, tail, params_of, counts)
    if bad.kind == "under":
        if bad.edges.is_empty():
            return Verdict(check, HOLDS,
                           "no sampled extension escapes; bounded evidence "
                           "only", SymbolicSet.empty(), bounds)
        return Verdict(check, UNKNOWN,
                       "sampled escapes found; finiteness undecidable for "
                       "a rule-presented map", bad.edges, bounds)
    if bad.edges.is_finite():
        note = {"exact": "exact", "over": "over-approximate", "mixed":
                "oracle classes sampled; bounded evidence only"}[bad.kind]
        return Verdict(check, HOLDS,
                       f"finite escape set F' = {bad.edges}; {note}",
                       bad.edges, bounds, exact=bad.exact)
    found = []
    for fam, idx in bad.edges.sample(7):
        got = _witness_through_edge(phi, prefix, EdgeRef(fam, idx), counts)
        if got is not None:
            found.append(got)
        if len(found) == 3:
            return Verdict(check, FAILS,
                           "infinitely many extension edges escape; every "
                           "finite excluded set admits an escaping point",
                           {"prefix": tuple(prefix),
                            "escaping-family": bad.edges,
                            "examples": found}, bounds)
    return Verdict(check, UNKNOWN,
                   "symbolic escape set is infinite but no concrete witness "
                   "was confirmed", bad.edges, bounds)


def check_csc_item_ii(phi, x_bar: FinitePoint, F: SymbolicSet) -> Verdict:
    """At a finite point with finite image (beta, B), for the target
    neighborhood excluding F there must be a finite source excluded set
    F' with the image of the shifted cylinder inside it."""
    h = phi.target
    img = eval_map(phi, x_bar)
    if length(img) == INFINITE:
        return Verdict("csc-item-ii", NOT_APPLICABLE, "image is infinite")
    l = int(length(img))
    B = img.tail
    shifted = shift_n(x_bar, l)
    good = SymbolSet(h.epsilon(B.vertices).difference(F), (B,))
    return _escape_verdict("csc-item-ii", phi, shifted.path, x_bar.tail,
                           *_outside(good),
                           {"tries": SAMPLE_TRIES, "F": str(F)})


def compute_A_x(phi, x_bar: FinitePoint, x: Point):
    """Extension edges after x_bar's path that can produce the same first
    image symbol as x, computed as every escape set is
    (``_reaching_edges``).  Returns (symbolic edge set, finite flag, exact
    flag)."""
    for i, edge in enumerate(x_bar.path):
        if coordinate(x, i + 1) != edge:
            raise MapError("x must extend the path of x_bar")
    c = coordinate(eval_map(phi, x), 1)
    if isinstance(c, MinimalEmitter):
        raise MapError("the first image symbol must be an edge")
    got = _reaching_edges(phi, x_bar.path, x_bar.tail, *_equal_to(c))
    return got.edges, got.edges.is_finite(), got.exact


def check_genchl_iib(phi, x_bar: FinitePoint) -> Verdict:
    """The extension-edge sets A_x must be finite for every extension whose
    first image symbol is an edge emitted by the image tail.  The A_x of
    each sampled extension goes to ``_escape_verdict``, whose failure
    witness, with A_x as its escaping family, gains the extension."""
    g, h = phi.source, phi.target
    img = eval_map(phi, x_bar)
    if length(img) != 0:
        return Verdict("genchl-iib", NOT_APPLICABLE, "image not length zero")
    B = img.tail
    eps_B = h.epsilon(B.vertices)
    bounds = {"extensions": 6, "sampled": 0, "tries": SAMPLE_TRIES}
    undecided = None
    for e, w, c in _first_symbols(phi, x_bar.path, g.epsilon(
            x_bar.tail.vertices), bounds["extensions"]):
        if isinstance(c, MinimalEmitter) or not eps_B.contains(c.family, c.index):
            continue
        # every verdict below shares bounds, so it echoes the final count
        bounds["sampled"] += 1
        v = _escape_verdict("genchl-iib", phi, x_bar.path, x_bar.tail,
                            *_equal_to(c), bounds)
        about = f"extension {e} (symbol {c})"
        if v.status == FAILS:
            return Verdict("genchl-iib", FAILS, f"A_x infinite for {about}",
                           {"extension": w, **v.witness}, bounds)
        if v.status == UNKNOWN and undecided is None:
            undecided = Verdict("genchl-iib", UNKNOWN, f"A_x undecided for "
                                f"{about}: {v.detail}", v.witness, bounds)
    return undecided if undecided is not None else Verdict(
        "genchl-iib", HOLDS, f"finite extension sets at {bounds['sampled']} "
        "sampled extensions", bounds=bounds)


def check_csc_item_iii(phi, A: MinimalEmitter, M: int = 4) -> Verdict:
    """At a zero-length point with infinite constant image (d d d ...),
    some cylinder at the point must stay inside the class of d for M
    shifts.  With an incomplete emitter inventory it cannot hold."""
    g = phi.source
    x0 = FinitePoint((), A)
    d_sym = coordinate(eval_map(phi, x0), 1)
    tries = 16
    bounds = {"M": M, "tries": tries}
    if isinstance(d_sym, MinimalEmitter):
        return Verdict("csc-item-iii", NOT_APPLICABLE,
                       "the image of the zero-length point has length zero",
                       bounds=bounds)
    # the first edges that put every point in a class of d_sym for sure;
    # an oracle class certifies none
    cov = SymbolicSet.empty()
    cov_exact = True
    for cls in phi.classes:
        params = cls.covers_symbol(d_sym)
        if params is None:
            continue
        if isinstance(cls, OracleClass):
            cov_exact = False
            continue
        cov = cov.union(_sure_next_edges(g, cls, (), params))
    emitters, complete = g.minimal_infinite_emitters()
    zero_ok = {}
    for m in emitters:
        try:
            zero_ok[m] = phi.symbol_at(FinitePoint((), m)) == d_sym
        except MapError:
            zero_ok[m] = False
    # tails inside A sit in every cylinder at A regardless of F
    for m in emitters:
        if m.vertices.subset_of(A.vertices) and not zero_ok[m]:
            return Verdict("csc-item-iii", FAILS,
                           f"the tail point of {m} stays in every cylinder "
                           f"but leaves the class of {d_sym}",
                           FinitePoint((), m), bounds)
    F = SymbolicSet.empty()
    eps_A = g.epsilon(A.vertices)
    frontier = eps_A.difference(cov)
    if not frontier.is_empty():
        if not frontier.is_finite():
            got = _iii_escape_witness(phi, A, frontier, d_sym, 0, F, tries)
            if got:
                return Verdict("csc-item-iii", FAILS,
                               "infinitely many first edges leave the class "
                               "and cannot all be excluded", got, bounds)
            return Verdict("csc-item-iii", UNKNOWN,
                           "first-step coverage gap is infinite but "
                           "unconfirmed", frontier, bounds)
        F = frontier
    reach = eps_A.difference(F)
    for i in range(1, M + 1):
        vertices = g.ranges_union(reach)
        for m in emitters:
            if m.vertices.subset_of(vertices) and not zero_ok[m]:
                return Verdict("csc-item-iii", FAILS,
                               f"a reachable tail point of {m} leaves the "
                               f"class of {d_sym} at step {i}",
                               FinitePoint((), m), bounds)
        reach = g.epsilon(vertices)
        gap = reach.difference(cov)
        if gap.is_empty():
            continue
        got = _iii_escape_witness(phi, A, gap, d_sym, i, F, tries)
        if got:
            return Verdict("csc-item-iii", FAILS,
                           f"the shifted cylinder leaves the class of "
                           f"{d_sym} at step {i}", got, bounds)
        return Verdict("csc-item-iii", UNKNOWN,
                       f"coverage gap at step {i} unconfirmed", gap, bounds)
    note = "exact coverage" if cov_exact else "coverage certified up to bounds"
    return Verdict("csc-item-iii", HOLDS if complete else UNKNOWN,
                   f"cylinder with excluded set {F} stays in the class for "
                   f"{M} shifts; {note}" + ("" if complete else INCOMPLETE),
                   F, bounds, exact=cov_exact and complete)


def _sure_next_edges(g: Ultragraph, cls: SchemaClass, head: tuple,
                     params: IndexSet) -> SymbolicSet:
    """Edges e such that every point starting with the edges ``head`` and
    then e lies in the class for sure, through a body schema anchored at
    the first coordinate whose atoms match ``head`` and add one more; the
    schema's parameter is narrowed to the value its head matched and to
    ``params``."""
    out = SymbolicSet.empty()
    start = FinitePoint(head)
    for s in cls.body:
        if s.anchor != 1 or len(s.atoms) != len(head) + 1 or s.has_rep():
            continue
        got = match_atoms(s.param_domain, s.atoms[:-1], start, 1)
        if got is None:
            continue
        dom = s.param_domain
        if dom is not None:
            dom = dom.intersect(params)
            if got.param is not None:
                dom = dom.intersect(IndexSet.of(got.param))
            if dom.is_empty():
                continue  # no instance of the schema at these values
        out = out.union(_atom_edges(g, s.atoms[-1], dom))
    return out


def _iii_escape_witness(phi, A: MinimalEmitter, gap: SymbolicSet, d_sym,
                        step: int, F: SymbolicSet, tries: int):
    """A point of the cylinder whose i-th shift provably leaves the class."""
    g = phi.source
    for fam, idx in gap.sample(max(tries // 2, 4)):
        bad_edge = EdgeRef(fam, idx)
        # build x in the cylinder whose (step)-th shift starts with bad_edge
        if step == 0:
            w = _try_point(g, (bad_edge,))
            starts = [w] if w is not None else []
        else:
            starts = _backward_paths(g, bad_edge, step,
                                     g.epsilon(A.vertices).difference(F))
        for x in starts:
            try:
                sym = phi.symbol_at(shift_n(x, step))
            except MapError:
                continue
            if sym != d_sym:
                return {"point": x, "step": step, "symbol": sym}
    return None


def _backward_paths(g: Ultragraph, target: EdgeRef, steps: int,
                    first_allowed: SymbolicSet):
    """Points x with x_{steps+1} = target whose first edge is allowed,
    growing each partial path back by up to six sampled edges a step."""
    partial = [[target]]
    for _ in range(steps):
        grown = []
        for p in partial:
            vf, vi = g.source(p[0])
            preds = g.epsilon(SymbolicSet.singleton(vf, vi))
            for fam, idx in preds.sample(6):
                grown.append([EdgeRef(fam, idx)] + p)
        partial = grown
    out = []
    for p in partial:
        if not first_allowed.contains(p[0].family, p[0].index):
            continue
        w = _try_point(g, tuple(p))
        if w is not None:
            out.append(w)
    return out


def check_length_preserving(phi, samples) -> Verdict:
    """Length preservation: the emitter classes must contain exactly the
    zero-length points, edge classes must be open, and the excluded-set
    and finite-extension conditions must hold at zero-length points.  With
    an incomplete emitter inventory it cannot hold."""
    g = phi.source
    src_emitters, complete = g.minimal_infinite_emitters()
    bounds = {"samples": len(samples), "tries": SAMPLE_TRIES}
    for m in src_emitters:
        x0 = FinitePoint((), m)
        sym = phi.symbol_at(x0)
        if not isinstance(sym, MinimalEmitter):
            return Verdict("length-preserving", FAILS,
                           f"zero-length point maps to edge symbol {sym}",
                           x0, bounds)
    for x in samples:
        if length(x) == 0:
            continue
        try:
            sym = phi.symbol_at(x)
        except (MapError, PointError):
            continue
        if isinstance(sym, MinimalEmitter):
            return Verdict(
                "length-preserving", FAILS,
                f"point of length {length(x)} lies in the class of the "
                f"length-zero image symbol {sym}", x, bounds)
    sub = check_csc_item_i(phi)
    if sub.status == FAILS:
        return Verdict("length-preserving", FAILS,
                       f"edge classes not open: {sub.detail}", sub.witness,
                       bounds)
    worst_status = HOLDS if sub.status == HOLDS else UNKNOWN
    for m in src_emitters:
        x0 = FinitePoint((), m)
        a = check_genchl_iia(phi, x0)
        b = check_genchl_iib(phi, x0)
        for v in (a, b):
            if v.status == FAILS:
                return Verdict("length-preserving", FAILS,
                               f"{v.check} fails at {x0}: {v.detail}",
                               v.witness, bounds)
            if v.status == UNKNOWN:
                worst_status = UNKNOWN
    return Verdict("length-preserving", worst_status if complete else UNKNOWN,
                   "emitter classes carry exactly the zero-length points; "
                   "extension conditions hold" + ("" if complete else
                                                  INCOMPLETE), bounds=bounds)


# -- direct topological probing ---------------------------------------------------


@dataclass
class ProbeBounds:
    n_max: int = 16
    # bounds nothing; goes once bench/wl_gsbc.py stops passing it
    depth: int = 24
    conv: ConvergenceBounds = field(default_factory=ConvergenceBounds)

    def __post_init__(self):
        if self.n_max < 1:
            raise MapError("probe bound n_max must be at least 1")

    def as_dict(self):
        # probe_n_max sizes the escape strategy's edge sample, and n_max is
        # the convergence bound's; index_bound: the bound _try_point builds
        # approach points with
        return {"probe_n_max": self.n_max,
                "index_bound": WITNESS_INDEX_BOUND,
                **self.conv.as_dict()}


def probe_continuity(phi, x: Point, bounds: ProbeBounds | None = None,
                     rng: random.Random | None = None) -> Verdict:
    """Drive sequences converging to x through the map and test whether the
    images converge to the image of x.  A failure produces the witness
    sequence, the stuck image symbols, and the separating excluded set.
    An image of x that the map cannot evaluate gives "unknown" at once.  An
    approach term whose image it cannot evaluate leaves that strategy
    undecided, with a note naming the term and the error, and the probe
    goes on: a later strategy's failure still decides, and otherwise the
    verdict is "unknown" with the first such term as its witness.

    The first strategy, the constant sequence x, x, ..., holds by
    construction and is not evaluated: with at least one term and one depth
    (``ConvergenceBounds`` refuses fewer) it meets every agreement and
    escape condition at x, and its images are the target itself.  At an
    infinite x the other strategies converge to x by construction as well
    when ``m_max <= n_max``: term n of each agrees with x on at least n
    coordinates (a swerve carries the first n edges of x, or whole cycles,
    before it turns away; a truncation keeps n edges of x; a strategy that
    finds no other point falls back to x), so every agreement condition up
    to ``m_max`` holds from term ``m_max`` on, and the inward check is
    skipped.  With ``m_max > n_max``, or at a finite x, it is read as
    before.  The approach strategies are deterministic: ``rng`` is accepted
    for callers that pass one and does not affect the verdict.

    Every evaluation of the probe reads the map's one table, so it reads
    what earlier evaluations of the map stored, in probes or not, and
    leaves what it stores for later ones."""
    bounds = bounds or ProbeBounds()
    g = phi.source
    try:
        target = eval_map(phi, x)
    except MapError as err:
        return Verdict("probe-continuity", UNKNOWN, str(err), x)
    worst = HOLDS
    notes = ["constant: images converge"]
    inward_holds = length(x) == INFINITE and \
        bounds.conv.m_max <= bounds.conv.n_max
    unplaced = []  # the terms whose image raised, in order
    strategies = _approach_strategies(g, x, bounds)
    for label, seq in strategies:
        repeat = isinstance(seq, RepeatFamily)
        term = functools.cache(seq.at if repeat else seq)
        # repeat families go in as they are, so their verdicts stay exact
        if not inward_holds and check_convergence(
                g, seq if repeat else term, x, bounds.conv).status != HOLDS:
            continue  # the strategy did not produce a convergent sequence

        def images(n, term=term):
            try:
                return eval_map(phi, term(n))
            except MapError:
                unplaced.append(term(n))
                raise

        try:
            outward = check_convergence(phi.target, images, target,
                                        bounds.conv)
        except MapError as err:
            worst = UNKNOWN
            notes.append(f"{label}: image of {unplaced[-1]} cannot be "
                         f"evaluated: {err}")
            continue
        if outward.status == FAILS:
            # up to three terms the check read, whose images are known
            terms = [term(n) for n in range(1, min(3, bounds.conv.n_max) + 1)]
            return Verdict(
                "probe-continuity", FAILS,
                f"strategy '{label}': inputs converge to {x} but images "
                f"do not converge to {target} ({outward.detail})",
                {"strategy": label, "terms": terms,
                 "images": [eval_map(phi, t) for t in terms],
                 "target": target, "stuck": outward.witness},
                bounds.as_dict())
        if outward.status == UNKNOWN:
            worst = UNKNOWN
            notes.append(f"{label}: undecided")
        else:
            notes.append(f"{label}: images converge"
                         + (" (exact)" if outward.exact else ""))
    return Verdict("probe-continuity", worst, "; ".join(notes),
                   unplaced[0] if unplaced else None, bounds.as_dict())


def _approach_strategies(g: Ultragraph, x: Point, bounds: ProbeBounds):
    """(label, sequence) pairs after the constant one, where a sequence is
    a RepeatFamily or a callable n -> point."""
    if length(x) == INFINITE:
        return _swerve_strategies(g, x) + _truncate_strategy(g, x)
    return _escape_strategy(g, x, bounds)


def _swerve_strategies(g, x):
    """Keep growing prefixes of x, then continue differently."""
    out = []
    if isinstance(x, PeriodicPoint) and not x.preamble:
        cyc = x.cycle
        taken = 0
        for e2 in g.successor_sample(cyc[-1], 6):
            if e2 == cyc[0]:
                continue
            w = _try_point(g, cyc + (e2,))
            if w is None:
                continue
            out.append((f"swerve to {e2} after whole cycles",
                        RepeatFamily(cyc, shift_n(w, len(cyc)))))
            taken += 1
            if taken >= 2:
                break
        return out

    def seq(n):
        edges = prefix(x, n)
        last = edges[-1]
        for e2 in g.successor_sample(last, 6):
            if e2 == coordinate(x, n + 1):
                continue
            w = _try_point(g, edges + (e2,))
            if w is not None:
                return w
        return x
    return [("swerve after a growing prefix", seq)]


def _truncate_strategy(g, x):
    def seq(n):
        edges = prefix(x, n)
        tails = g.range_emitters(edges[-1])
        if tails:
            return FinitePoint(edges, tails[0])
        return x
    probe = seq(1)
    if isinstance(probe, FinitePoint):
        return [("truncate to finite points", seq)]
    return []


def _escape_strategy(g, x: FinitePoint, bounds: ProbeBounds):
    eps = g.epsilon(x.tail.vertices)
    edges = [EdgeRef(f, k) for f, k in eps.sample(bounds.n_max + 4)]
    if not edges:
        return []

    def seq(n):
        e = edges[min(n - 1, len(edges) - 1)]
        w = _try_point(g, tuple(x.path) + (e,))
        return w if w is not None else x
    return [("extend past the tail with escaping edges", seq)]
