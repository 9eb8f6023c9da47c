"""Pseudo cylinders, schema families, and finitely defined sets.

A pseudo cylinder pins a block of coordinates at fixed positions; unlike a
generalized cylinder it need not be open.  Infinite unions of pseudo
cylinders arising in practice are finitely presented here as *schemas*: a
pattern of atoms anchored at a position, with at most one repeated symbol
and at most one free family index.  A finitely defined set is presented by
two schema lists, one covering the set and one covering its complement;
membership is then decided by finitely many coordinates.

The refutation procedure gives witness-based evidence that a set is *not*
finitely defined: for every coordinate window up to a bound it produces a
point agreeing with the target on that window yet outside the set, so no
union of pseudo cylinders whose windows fit inside the bound can cover the
target point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .graphs import EdgeRef, Ultragraph
from .intsets import AffineIndexMap, IDENTITY_MAP, IndexSet, SymbolicSet
from .paths import Block, PathError, Ultrapath, enumerate_blocks
from .points import (
    Cylinder,
    FinitePoint,
    Point,
    PointError,
    block_witness,
    concat,
    coordinate,
    length,
    prefix,
    shift_n,
    validate_point,
)
from .verdicts import FAILS, HOLDS, Verdict
from . import sampling


class SchemaError(ValueError):
    pass


class AuditError(ValueError):
    """A refutation witness failed its re-check."""


@dataclass(frozen=True)
class LitAtom:
    symbol: object  # EdgeRef | MinimalEmitter

    def __str__(self) -> str:
        return str(self.symbol)


@dataclass(frozen=True)
class VarAtom:
    """An edge of ``family`` whose index is an affine image of the schema's
    one free parameter."""

    family: str
    map: AffineIndexMap = IDENTITY_MAP

    def __post_init__(self):
        if self.map.scale == 0:
            raise SchemaError(f"{self.family}[{self.map}] has a constant "
                              f"index; write it as an edge literal")

    def __str__(self) -> str:
        return f"{self.family}[{self.map}]"


@dataclass(frozen=True)
class RepAtom:
    """One or more repetitions of a single edge literal."""

    symbol: EdgeRef

    def __str__(self) -> str:
        return f"rep({self.symbol})"


@dataclass(frozen=True)
class PcSchema:
    """A union of pseudo cylinders: the pattern instantiated over every
    parameter value and repetition count, anchored at a fixed position.

    With no atoms this is the distinguished empty pseudo cylinder."""

    anchor: int = 1
    atoms: tuple = ()
    param_domain: IndexSet | None = None
    note: str = field(default="", compare=False)

    def __post_init__(self):
        if self.anchor < 1:
            raise SchemaError("positions are 1-based")
        if sum(isinstance(a, RepAtom) for a in self.atoms) > 1:
            raise SchemaError("at most one repeated atom per schema")
        has_var = any(isinstance(a, VarAtom) for a in self.atoms)
        if has_var and self.param_domain is None:
            raise SchemaError("schemas with free indices need a parameter domain")
        if not has_var and self.param_domain is not None:
            raise SchemaError("parameter domain given but no free index used")

    def has_rep(self) -> bool:
        return any(isinstance(a, RepAtom) for a in self.atoms)

    def fixed_window(self) -> tuple[int, int] | None:
        """(first, last) coordinate positions, when no repetition is used."""
        if self.has_rep() or not self.atoms:
            return None
        return self.anchor, self.anchor + len(self.atoms) - 1

    def __str__(self) -> str:
        if not self.atoms:
            return "pc-empty"
        end = "*" if self.has_rep() else str(self.anchor + len(self.atoms) - 1)
        body = " ".join(str(a) for a in self.atoms)
        if self.param_domain is None:
            return f"pc {self.anchor}..{end} : {body}"
        return (f"pc {self.anchor}..{end} : {body} ; "
                f"k in {self.param_domain.literal()}")


EMPTY_PC = PcSchema(1, ())


@dataclass(frozen=True)
class SchemaMatch:
    param: int | None
    rep_count: int | None
    window: tuple[int, int]


def match_schema(s: PcSchema, x: Point, max_rep: int = 64) -> SchemaMatch | None:
    """First successful instantiation of the schema on x, or None.

    Finite points supply their tail emitter beyond their length, so
    repeated tail symbols match emitter literals naturally."""
    if not s.atoms:
        return None
    split = next((i for i, a in enumerate(s.atoms)
                  if isinstance(a, RepAtom)), None)
    if split is None:
        return match_atoms(s.param_domain, s.atoms, x, s.anchor)
    prefix, rep, suffix = s.atoms[:split], s.atoms[split], s.atoms[split + 1:]
    pos = s.anchor + len(prefix)
    got = match_atoms(s.param_domain, prefix, x, s.anchor) if prefix else \
        SchemaMatch(None, None, (s.anchor, s.anchor - 1))
    if prefix and got is None:
        return None
    run = 0
    while run < max_rep and coordinate(x, pos + run) == rep.symbol:
        run += 1
    for m in range(1, run + 1):
        tail = match_atoms(s.param_domain, suffix, x, pos + m,
                           preset=got.param if prefix else None)
        if suffix and tail is None:
            continue
        param = tail.param if suffix and tail.param is not None else \
            (got.param if prefix else None)
        return SchemaMatch(param, m, (s.anchor, pos + m + len(suffix) - 1))
    return None


def match_atoms(dom: IndexSet | None, atoms, x: Point, start: int,
                preset: int | None = None) -> SchemaMatch | None:
    """Match repetition-free atoms against x from coordinate ``start``,
    with the free parameter ranging over ``dom``."""
    param = preset
    for i, atom in enumerate(atoms):
        sym = coordinate(x, start + i)
        if isinstance(atom, LitAtom):
            if sym != atom.symbol:
                return None
        elif isinstance(atom, VarAtom):
            if not isinstance(sym, EdgeRef) or sym.family != atom.family:
                return None
            j = atom.map.solve(sym.index)
            if (param is not None and param != j) or not dom.contains(j):
                return None
            param = j
        else:
            raise SchemaError("repetition atoms are handled separately")
    return SchemaMatch(param, None, (start, start + len(atoms) - 1))


def side_matches(schemas, x: Point, max_rep: int = 64):
    for s in schemas:
        m = match_schema(s, x, max_rep)
        if m is not None:
            return s, m
    return None


@dataclass(frozen=True)
class FdPresentation:
    """A finitely defined set: schema unions for the set and its complement."""

    positive: tuple
    negative: tuple

    def member(self, x: Point) -> bool:
        return side_matches(self.positive, x) is not None


@dataclass
class SetOracle:
    """A pure membership predicate."""

    member: Callable[[Point], bool]
    label: str = "oracle"

    def __call__(self, x: Point) -> bool:
        return self.member(x)

    def __str__(self) -> str:
        return self.label


# -- cylinder decomposition ---------------------------------------------------


def _edge_var_schemas(prefix_lits, edges: SymbolicSet, note: str):
    out = []
    for fam, iset in edges.entries:
        out.append(PcSchema(1, tuple(prefix_lits) + (VarAtom(fam),),
                            iset, note))
    return out


def decompose_cylinder(g: Ultragraph, D: Cylinder) -> FdPresentation:
    """Present a generalized cylinder and its complement as schema unions.

    The positive side extends the base by each allowed next edge or by a
    minimal emitter tail inside the terminal set; the negative side covers
    prefix mismatches position by position, then forbidden or foreign next
    edges, then emitter tails not inside the terminal set."""
    emitters, complete = g.minimal_infinite_emitters()
    if not complete:
        raise SchemaError("minimal emitter inventory is incomplete: the "
                          "closure did not saturate within its cap")
    base, F = D.base, D.excluded
    A = base.terminal
    gamma = [LitAtom(e) for e in base.edges]
    eps_A = g.epsilon(A)
    pos = _edge_var_schemas(gamma, eps_A.difference(F), "allowed next edge")
    for m in emitters:
        if m.vertices.subset_of(A):
            pos.append(PcSchema(1, tuple(gamma) + (LitAtom(m),),
                                note="tail inside the terminal"))
    neg = []
    for i in range(1, len(base.edges) + 1):
        head = gamma[:i - 1]
        bad = base.edges[i - 1]
        for fam, ef in g.edge_families.items():
            dom = ef.domain
            if fam == bad.family:
                dom = dom.difference(IndexSet.of(bad.index))
            if not dom.is_empty():
                neg.append(PcSchema(1, tuple(head) + (VarAtom(fam),), dom,
                                    f"differs at position {i}"))
        for m in emitters:
            neg.append(PcSchema(1, tuple(head) + (LitAtom(m),),
                                note=f"tail at position {i}"))
    blocked = g.all_edges().difference(eps_A).union(F)
    neg.extend(_edge_var_schemas(gamma, blocked, "forbidden next edge"))
    for m in emitters:
        if not m.vertices.subset_of(A):
            neg.append(PcSchema(1, tuple(gamma) + (LitAtom(m),),
                                note="tail outside the terminal"))
    return FdPresentation(tuple(pos), tuple(neg))


# -- validation ----------------------------------------------------------------


@dataclass
class FdBounds:
    depth: int = 3
    index_bound: int = 3
    samples: int = 30
    seed: int = 0

    def as_dict(self):
        # max_rep: the repetition bound validate_fd_presentation matches with
        return {"depth": self.depth, "index_bound": self.index_bound,
                "samples": self.samples, "max_rep": 32}


def sample_points(g: Ultragraph, bounds: FdBounds) -> list[Point]:
    import random

    rng = random.Random(bounds.seed)
    pool: list[Point] = list(sampling.zero_points(g))
    for n in range(1, bounds.depth + 1):
        for b in enumerate_blocks(g, n, bounds.index_bound):
            w = block_witness(g, b, bounds.index_bound)
            if w is not None:
                pool.append(w)
    while len(pool) < bounds.samples + len(pool) // 2:
        pool.append(sampling.random_point(g, rng, bounds.index_bound))
        if len(pool) > 4 * bounds.samples:
            break
    return list(dict.fromkeys(pool))


def validate_fd_presentation(g: Ultragraph, P: FdPresentation,
                             bounds: FdBounds | None = None) -> Verdict:
    """Sampled check that the two sides partition the space: every sampled
    point must match exactly one side."""
    bounds = bounds or FdBounds()
    for x in sample_points(g, bounds):
        pos = side_matches(P.positive, x, 32) is not None
        neg = side_matches(P.negative, x, 32) is not None
        if pos and neg:
            return Verdict("fd-presentation", FAILS,
                           "both sides match", x, bounds.as_dict())
        if not pos and not neg:
            return Verdict("fd-presentation", FAILS,
                           "neither side matches", x, bounds.as_dict())
    return Verdict("fd-presentation", HOLDS, "consistent on all samples",
                   None, bounds.as_dict())


def expand_rep(s: PcSchema, rep_bound: int):
    if not s.has_rep():
        return [s]
    out = []
    for m in range(1, rep_bound + 1):
        atoms = []
        for a in s.atoms:
            if isinstance(a, RepAtom):
                atoms.extend(LitAtom(a.symbol) for _ in range(m))
            else:
                atoms.append(a)
        out.append(PcSchema(s.anchor, tuple(atoms), s.param_domain,
                            f"{s.note} (rep expanded to {m})"))
    return out


def _instantiate(s: PcSchema, j: int) -> PcSchema | None:
    if s.param_domain is None:
        return s
    if not s.param_domain.contains(j):
        return None
    atoms = tuple(
        LitAtom(EdgeRef(a.family, a.map.apply(j))) if isinstance(a, VarAtom)
        else a for a in s.atoms)
    return PcSchema(s.anchor, atoms, None, s.note)


def schema_intersect(g: Ultragraph, s1: PcSchema, s2: PcSchema,
                     index_bound: int = 6) -> list:
    """Schemas covering the conjunction of two schemas.

    Exact for fixed windows with at most one free parameter in play after
    unification; repetition atoms are expanded up to 6 repeats and
    unaligned second parameters over [-index_bound, index_bound] (the
    result notes say so)."""
    out = []
    for f1 in expand_rep(s1, 6):
        for f2 in expand_rep(s2, 6):
            out.extend(_merge_fixed(g, f1, f2, index_bound))
    seen, uniq = set(), []
    for s in out:
        if (s.anchor, s.atoms, s.param_domain) not in seen:
            seen.add((s.anchor, s.atoms, s.param_domain))
            uniq.append(s)
    return uniq


def _merge_fixed(g: Ultragraph, s1: PcSchema, s2: PcSchema,
                 index_bound: int) -> list:
    if not s1.atoms or not s2.atoms:
        return []
    w1, w2 = s1.fixed_window(), s2.fixed_window()
    both_vars = s1.param_domain is not None and s2.param_domain is not None
    if both_vars:
        shared = _tie_parameters(s1, s2)
        if shared is None:
            # parameters never align: expand the second one near the origin
            out = []
            for j in s2.param_domain.intersect(
                    IndexSet.between(-index_bound, index_bound)).members():
                inst = _instantiate(s2, j)
                if inst is not None:
                    out.extend(_merge_fixed(g, s1, inst, index_bound))
            return out
        if shared == "empty":
            return []
        s2, dom = shared
        if dom.is_empty():
            return []
        s1 = PcSchema(s1.anchor, s1.atoms, dom, s1.note)
    lo, hi = min(w1[0], w2[0]), max(w1[1], w2[1])

    def atom_at(s, w, pos):
        return s.atoms[pos - w[0]] if w[0] <= pos <= w[1] else None

    merged: list = []
    param_fix: list[int] = []
    gaps: list[int] = []
    for pos in range(lo, hi + 1):
        a1, a2 = atom_at(s1, w1, pos), atom_at(s2, w2, pos)
        if a1 is None and a2 is None:
            gaps.append(pos)
            merged.append(None)
            continue
        if a1 is None or a2 is None:
            merged.append(a1 or a2)
            continue
        u = _unify_atoms(a1, a2, param_fix)
        if u is None:
            return []
        merged.append(u)
    dom = s1.param_domain if s1.param_domain is not None else s2.param_domain
    for j in param_fix:
        if dom is None or not dom.contains(j):
            return []
        dom = IndexSet.of(j)
    results = [(merged, dom)]
    if param_fix and dom is not None and dom.cardinality() == 1:
        j = dom.members()[0]
        fixed = [LitAtom(EdgeRef(a.family, a.map.apply(j)))
                 if isinstance(a, VarAtom) else a for a in merged]
        results = [(fixed, None)]
    out = []
    for atoms, pdom in results:
        for filled in _fill_gaps(g, atoms, gaps, lo, index_bound):
            has_var = any(isinstance(a, VarAtom) for a in filled)
            note = f"{s1.note} & {s2.note}".strip(" &")
            out.append(PcSchema(lo, tuple(filled),
                                pdom if has_var else None, note))
    return out


def _tie_parameters(s1: PcSchema, s2: PcSchema):
    """Rewrite s2's free parameter in terms of s1's via a shared var
    position.  Returns (rewritten s2, restricted domain), "empty" when the
    shared position forces disjointness, or None when no position is
    shared."""
    w1, w2 = s1.fixed_window(), s2.fixed_window()
    phi = None
    for pos in range(max(w1[0], w2[0]), min(w1[1], w2[1]) + 1):
        a1, a2 = s1.atoms[pos - w1[0]], s2.atoms[pos - w2[0]]
        if isinstance(a1, VarAtom) and isinstance(a2, VarAtom):
            if a1.family != a2.family:
                return "empty"
            # a1.map(j) == a2.map(k)  =>  k = phi(j)
            phi = a2.map.inverse().compose(a1.map)
            break
    if phi is None:
        return None
    atoms = tuple(VarAtom(a.family, a.map.compose(phi))
                  if isinstance(a, VarAtom) else a for a in s2.atoms)
    dom = s1.param_domain.intersect(
        phi.preimage(s2.param_domain, IndexSet.all()))
    if dom.is_empty():
        return "empty"
    return PcSchema(s2.anchor, atoms, dom, s2.note), dom


def _unify_atoms(a1, a2, param_fix: list):
    if isinstance(a1, LitAtom) and isinstance(a2, LitAtom):
        return a1 if a1.symbol == a2.symbol else None
    if isinstance(a1, VarAtom) and isinstance(a2, VarAtom):
        # after tying, equal positions must carry consistent maps
        if a1.family != a2.family:
            return None
        if a1.map == a2.map:
            return a1
        if a1.map.scale == a2.map.scale:
            return None
        diff = a2.map.offset - a1.map.offset
        if diff % (a1.map.scale - a2.map.scale) != 0:
            return None
        param_fix.append(diff // (a1.map.scale - a2.map.scale))
        return a1
    var, lit = (a1, a2) if isinstance(a1, VarAtom) else (a2, a1)
    if not isinstance(lit.symbol, EdgeRef) or lit.symbol.family != var.family:
        return None
    param_fix.append(var.map.solve(lit.symbol.index))
    return lit


def _fill_gaps(g: Ultragraph, atoms: list, gaps: list[int], lo: int,
               index_bound: int):
    if not gaps:
        yield list(atoms)
        return
    emitters, _ = g.minimal_infinite_emitters()
    options = [*g.bounded_all_edges(index_bound, 0), *emitters]
    for combo in itertools.product(options, repeat=len(gaps)):
        filled = list(atoms)
        for pos, sym in zip(gaps, combo):
            filled[pos - lo] = LitAtom(sym)
        yield filled


# -- refutation of finite definedness -----------------------------------------


@dataclass
class RefutationRow:
    window: tuple[int, int]
    witness: Point
    note: str


@dataclass
class RefutationResult:
    status: str  # "refuted" | "inconclusive"
    rows: list
    claim: str
    stuck: list


def refute_finitely_defined(g: Ultragraph, oracle: SetOracle, x: Point,
                            max_window: int) -> RefutationResult:
    """For every window (k, l) inside [1, max_window], exhibit a point that
    agrees with x there but is outside the set.  Success shows no union of
    pseudo cylinders with windows inside [1, max_window] covers x, which
    refutes finite definedness at that bound."""
    if not oracle(x):
        raise PointError("refutation needs a point inside the set")
    rows: list[RefutationRow] = []
    stuck: list[tuple[int, int]] = []
    for k in range(1, max_window + 1):
        for l in range(k, max_window + 1):
            y = _refuting_point(g, oracle, x, k, l, 6, 40)
            if y is None:
                stuck.append((k, l))
            else:
                rows.append(RefutationRow((k, l), y[0], y[1]))
    status = "refuted" if not stuck else "inconclusive"
    claim = (f"no pseudo-cylinder union with windows inside [1, "
             f"{max_window}] covers the point; bound {max_window} only")
    result = RefutationResult(status, rows, claim, stuck)
    audit_refutation(g, oracle, x, result)
    return result


def audit_refutation(g: Ultragraph, oracle: SetOracle, x: Point,
                     result: RefutationResult) -> None:
    """Re-check every witness: window agreement and non-membership.
    Raises AuditError on the first witness that fails."""
    for row in result.rows:
        k, l = row.window
        if oracle(row.witness):
            raise AuditError(f"witness for {row.window} is inside")
        for i in range(k, l + 1):
            if coordinate(row.witness, i) != coordinate(x, i):
                raise AuditError(f"witness for {row.window} disagrees at {i}")


def _refuting_point(g: Ultragraph, oracle: SetOracle, x: Point, k: int,
                    l: int, index_bound: int, tries: int):
    for cand, note in _window_variants(g, x, k, l, index_bound, tries):
        if validate_point(g, cand):
            continue
        if any(coordinate(cand, i) != coordinate(x, i)
               for i in range(k, l + 1)):
            continue
        if not oracle(cand):
            return cand, note
    return None


def _window_variants(g: Ultragraph, x: Point, k: int, l: int,
                     index_bound: int, tries: int):
    """Candidate points agreeing with x on k..l: continuation changes after
    l, then prefix changes before k."""
    window_syms = prefix(x, l)
    if all(isinstance(s, EdgeRef) for s in window_syms):
        nxt_true = coordinate(x, l + 1) if length(x) > l else None
        count = 0
        for e2 in g.successor_sample(window_syms[-1], tries):
            if e2 == nxt_true:
                continue
            w = block_witness(g, Block(window_syms + (e2,)), index_bound)
            if w is not None:
                count += 1
                yield w, f"continuation changed at position {l + 1}"
            if count >= tries:
                break
        tails = g.range_emitters(window_syms[-1])
        for m in tails:
            yield (FinitePoint(window_syms, m),
                   f"cut to a finite point after position {l}")
    if k > 1:
        tail_edges = all(isinstance(s, EdgeRef) for s in window_syms[k - 1:])
        if not tail_edges:
            return
        for b in enumerate_blocks(g, k - 1, index_bound):
            if not isinstance(b.symbols[-1], EdgeRef):
                continue
            first = window_syms[k - 1]
            if isinstance(first, EdgeRef) and \
                    not g.adjacent(b.symbols[-1], first):
                continue
            up = Ultrapath(tuple(b.symbols), g.range_of(b.symbols[-1]))
            try:
                cand = concat(g, up, shift_n(x, k - 1))
            except (PathError, PointError):
                continue
            yield cand, f"prefix replaced before position {k}"
