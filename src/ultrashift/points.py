"""Points of an ultragraph shift space, the shift map, and its topology.

A point is either finite (an edge path followed by a constant minimal
infinite emitter tail, including bare zero-length tails) or eventually
periodic.  Both forms are canonical, so equality between points is exact.

The topology is generated by the cylinders ``D(y, F)``: points extending
the ultrapath ``y`` whose next symbol avoids the finite edge set ``F``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import EdgeRef, GraphError, MinimalEmitter, Ultragraph
from .intsets import INFINITE, IndexSet, SymbolicSet
from .paths import PathError, Ultrapath, edges_adjacent
from .verdicts import FAILS, HOLDS, UNKNOWN, Verdict


class PointError(ValueError):
    pass


@dataclass(frozen=True)
class FinitePoint:
    """A finite path followed by the constant tail ``tail tail ...``."""

    path: tuple = ()
    tail: MinimalEmitter = None

    def __str__(self) -> str:
        inner = " ".join(str(e) for e in self.path)
        sep = " " if inner else ""
        return f"({inner}{sep}{self.tail} ...)"


def _primitive(cycle: tuple) -> tuple:
    if cycle.count(cycle[0]) == 1:
        return cycle  # a proper power repeats its first symbol
    for p in range(1, len(cycle) + 1):
        if len(cycle) % p == 0 and cycle == cycle[:p] * (len(cycle) // p):
            return cycle[:p]
    return cycle


@dataclass(frozen=True)
class PeriodicPoint:
    """An eventually periodic infinite point, kept in canonical form:
    primitive cycle, preamble as short as possible."""

    preamble: tuple = ()
    cycle: tuple = ()

    def __post_init__(self):
        if not self.cycle:
            raise PointError("cycle must be nonempty")
        cycle = _primitive(tuple(self.cycle))
        pre = tuple(self.preamble)
        while pre and pre[-1] == cycle[-1]:
            pre = pre[:-1]
            cycle = cycle[-1:] + cycle[:-1]
        object.__setattr__(self, "preamble", pre)
        object.__setattr__(self, "cycle", cycle)

    def __str__(self) -> str:
        pre = " ".join(str(e) for e in self.preamble)
        cyc = " ".join(str(e) for e in self.cycle)
        sep = " " if pre else ""
        return f"({pre}{sep}({cyc})* ...)"


Point = FinitePoint | PeriodicPoint


def length(x: Point):
    if isinstance(x, FinitePoint):
        return len(x.path)
    return INFINITE


def coordinate(x: Point, n: int):
    """The n-th symbol of x, 1-based: an EdgeRef, or the tail emitter."""
    if n < 1:
        raise PointError("coordinates are 1-based")
    if isinstance(x, FinitePoint):
        return x.path[n - 1] if n <= len(x.path) else x.tail
    m = len(x.preamble)
    if n <= m:
        return x.preamble[n - 1]
    return x.cycle[(n - m - 1) % len(x.cycle)]


def prefix(x: Point, n: int) -> tuple:
    """The first n coordinates of x, as ``coordinate`` reads them, by
    slicing: past a finite path the tail repeats, and a cycle wraps."""
    if n < 0:
        raise PointError("a prefix has a nonnegative length")
    if isinstance(x, FinitePoint):
        path = x.path[:n]
        return path + (x.tail,) * (n - len(path))
    pre = x.preamble[:n]
    laps, part = divmod(n - len(pre), len(x.cycle))
    return pre + x.cycle * laps + x.cycle[:part]


def shift(x: Point) -> Point:
    """Drop the first coordinate; zero-length points are fixed."""
    if isinstance(x, FinitePoint):
        return FinitePoint(x.path[1:], x.tail) if x.path else x
    return PeriodicPoint(x.preamble[1:], x.cycle if x.preamble
                         else x.cycle[1:] + x.cycle[:1])


def shift_n(x: Point, n: int) -> Point:
    for _ in range(n):
        x = shift(x)
    return x


def orbit_closure(x: Point) -> tuple[int, int]:
    """Steps (m, m + p) at which the shift orbit of x first repeats: the
    point after m + p shifts is the one after m.  Canonical forms fix both,
    so no point is compared: a finite point of path length L is fixed after
    L shifts, and a periodic point with minimal preamble m and primitive
    cycle p has pairwise distinct shifts before m + p."""
    if isinstance(x, FinitePoint):
        return len(x.path), len(x.path) + 1
    return len(x.preamble), len(x.preamble) + len(x.cycle)


def validate_point(g: Ultragraph, x: Point) -> list[str]:
    """Problems with x as a point of the shift space of g; entries starting
    with 'unknown:' are warnings from unsaturated closures.

    The consecutive pairs of the path, or of the preamble and cycle with the
    cycle's wrap, are first read in one pass from the graph's ``adjacent``
    memo (``Ultragraph.known_adjacent``); on any miss each pair is asked in
    turn, and each that does not connect is a problem.  An edge outside the
    graph that this walk or the tail's range meets is the one problem."""
    finite = isinstance(x, FinitePoint)
    edges = x.path if finite else x.preamble + x.cycle + x.cycle[:1]
    try:
        if len(edges) > 1 and g.known_adjacent(edges):
            problems = []
        else:
            problems = [f"{prev} does not connect to {nxt}"
                        for prev, nxt in zip(edges, edges[1:])
                        if not edges_adjacent(g, prev, nxt)]
        if finite:  # tails of length 0, or those the path's range emits
            legal, complete = g.minimal_infinite_emitters()
            if x.path and x.tail is not None:
                legal = g.range_emitters(x.path[-1])
    except (GraphError, KeyError):
        # an edge outside its family's domain, or of no family of g
        missing = next((e for e in edges if not g.has_edge(e)), None)
        if missing is None:
            raise
        return [f"edge {missing} does not exist"]
    if not finite:
        return problems
    if x.tail is None:
        problems.append("finite points need a tail emitter")
    elif not any(m == x.tail for m in legal):
        if complete:
            problems.append(f"{x.tail} is not a legal tail here")
        else:
            problems.append(f"unknown: cannot certify tail {x.tail}")
    return problems


def hard_problems(g: Ultragraph, x: Point) -> list[str]:
    """What makes x no point of g, without the "unknown:" warnings."""
    return [p for p in validate_point(g, x) if not p.startswith("unknown:")]


# -- concatenation and prefixes ---------------------------------------------


def concat(g: Ultragraph, x: Ultrapath, y: Point) -> Point:
    """Concatenate an ultrapath with a point.  y may follow x when s(y)
    lies in r(x) (as element for positive length, as subset for length
    zero)."""
    r = x.terminal
    if length(y) == 0:
        if not y.tail.vertices.subset_of(r):
            raise PathError(f"{y.tail.vertices} is not a subset of {r}")
    else:
        first = coordinate(y, 1)
        if not g.source_in(first, r):
            raise PathError(f"source of {first} not in {r}")
    return prepend(x.edges, y)


def prepend(edges: tuple, y: Point) -> Point:
    """The point that reads ``edges`` and then y, unchecked."""
    if not edges:
        return y
    if isinstance(y, FinitePoint):
        return FinitePoint(edges + y.path, y.tail)
    return PeriodicPoint(edges + y.preamble, y.cycle)


def is_prefix(g: Ultragraph, y: Ultrapath, x: Point):
    """Whether the ultrapath y is an initial segment of the point x.
    Returns (bool, remainder) with remainder z satisfying x = concat(y, z)
    when the answer is True."""
    n = len(y.edges)
    xlen = length(x)
    if xlen < n:
        return False, None
    for i in range(n):
        if coordinate(x, i + 1) != y.edges[i]:
            return False, None
    term = y.terminal
    if xlen == n:
        ok = x.tail.vertices.subset_of(term)
        return (ok, FinitePoint((), x.tail)) if ok else (False, None)
    nxt = coordinate(x, n + 1)
    ok = g.source_in(nxt, term)
    return (ok, shift_n(x, n)) if ok else (False, None)


# -- cylinders ----------------------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    """Generalized cylinder D(base, excluded): points with the base as
    prefix whose next symbol is not an excluded edge."""

    base: Ultrapath
    excluded: SymbolicSet = SymbolicSet.empty()

    def __str__(self) -> str:
        if self.excluded.is_empty():
            return f"D{self.base}"
        return f"D({self.base}, minus {self.excluded})"


def validate_cylinder(g: Ultragraph, D: Cylinder) -> list[str]:
    problems = []
    if not D.excluded.is_finite():
        problems.append("excluded set must be finite")
    eps = g.epsilon(D.base.terminal)
    if not D.excluded.subset_of(eps):
        problems.append("excluded edges must be emitted by the terminal set")
    return problems


def cylinder_contains(g: Ultragraph, D: Cylinder, x: Point) -> bool:
    ok, _ = is_prefix(g, D.base, x)
    if not ok:
        return False
    nxt = coordinate(x, len(D.base.edges) + 1)
    if isinstance(nxt, MinimalEmitter):
        return True  # excluded sets contain edges only
    return not D.excluded.contains(nxt.family, nxt.index)


def shift_cylinder(D: Cylinder) -> Cylinder:
    """The shift image: valid only for positive-length bases, where the
    shift acts by dropping the first base edge and keeping exclusions."""
    if not D.base.edges:
        raise PointError("the shift image of a zero-length cylinder is not "
                         "a cylinder in general")
    return Cylinder(Ultrapath(D.base.edges[1:], D.base.terminal), D.excluded)


def neighborhood_basis(g: Ultragraph, x: Point, depth: int | None = None,
                       excluded: SymbolicSet | None = None) -> Cylinder:
    """The basis element at x: for infinite x, the cylinder over its first
    ``depth`` edges; for finite x, the cylinder over the whole path with
    the given finite excluded set."""
    if length(x) == INFINITE:
        if not depth or depth < 1:
            raise PointError("infinite points need a positive depth")
        edges = prefix(x, depth)
        return Cylinder(Ultrapath(edges, g.range_of(edges[-1])))
    if depth is not None:
        raise PointError("finite points take an excluded set, not a depth")
    F = excluded if excluded is not None else SymbolicSet.empty()
    D = Cylinder(Ultrapath(x.path, x.tail.vertices), F)
    problems = validate_cylinder(g, D)
    if problems:
        raise PointError("; ".join(problems))
    return D


# -- convergence --------------------------------------------------------------


@dataclass
class ConvergenceBounds:
    m_max: int = 8
    n_max: int = 32
    f_list: tuple = ()  # finite excluded edge sets for the finite-target case

    def __post_init__(self):
        # no term or no depth to read would leave nothing to check
        if self.m_max < 1 or self.n_max < 1:
            raise PointError("convergence bounds m_max and n_max must be "
                             "at least 1")

    def as_dict(self) -> dict:
        return {"m_max": self.m_max, "n_max": self.n_max,
                "f_list": [str(F) for F in self.f_list]}


@dataclass(frozen=True)
class RepeatFamily:
    """The sequence x^n = block^n followed by a fixed tail point.

    The agreement depth against any fixed target is affine in n for this
    family, so convergence verdicts on it can be certified exactly."""

    block: tuple
    tail: Point
    label: str = "repeat family"

    def at(self, n: int) -> Point:
        return prepend(self.block * n, self.tail)


def check_convergence(g: Ultragraph, seq, target: Point,
                      bounds: ConvergenceBounds | None = None) -> Verdict:
    """Bounded check that seq(n) converges to target.

    For an infinite target the condition per M is eventual prefix agreement
    to depth M; for a finite target (path, A) the condition per finite F is
    that eventually either the term equals the target or it extends the
    target's path by an edge in eps(A) outside F.  ``seq`` is a callable or
    a RepeatFamily; repeat families get exact certificates.  A "fails"
    carries the witness (n_max, term at n_max, failing condition).
    """
    bounds = bounds or ConvergenceBounds()
    at = seq.at if isinstance(seq, RepeatFamily) else seq
    terms = {}

    def term(n):
        if n not in terms:
            terms[n] = at(n)
        return terms[n]

    # (name, read) pairs; read() lists the condition's truth at n = 1..n_max
    conditions = []
    if length(target) == INFINITE:
        # term n satisfies condition M when it agrees with the target to
        # depth M; each term's depth is read once, up to m_max
        depths: list = []

        def agreeing(M: int) -> list:
            if not depths:
                goal = prefix(target, bounds.m_max)
                depths.extend(_agreement(term(n), goal)
                              for n in range(1, bounds.n_max + 1))
            return [d >= M for d in depths]

        for M in range(1, bounds.m_max + 1):
            conditions.append((f"prefix agreement to depth {M}",
                               functools.partial(agreeing, M)))
    else:
        f_list = bounds.f_list or _default_f_list(g, target)
        for F in f_list:
            conditions.append((f"escape outside F={F}", functools.partial(
                _escape_outcomes, g, target, F, term, bounds.n_max)))

    worst = HOLDS
    detail_bits = []
    witness = None
    exact = isinstance(seq, RepeatFamily)
    half = bounds.n_max // 2
    for name, read in conditions:
        outcomes = read()
        if not any(outcomes[half:]):
            # the whole tail of the window fails: divergence up to bounds
            worst = FAILS
            witness = (bounds.n_max, term(bounds.n_max), name)
            detail_bits.append(f"{name}: fails for every large sampled n")
            exact = exact and _stable(outcomes, half)
            break
        last_fail = max((i for i, ok in enumerate(outcomes) if not ok),
                        default=-1)
        if last_fail == len(outcomes) - 1:
            if worst == HOLDS:
                worst = UNKNOWN
            detail_bits.append(f"{name}: still failing at n={bounds.n_max}")
            exact = False
        else:
            detail_bits.append(f"{name}: satisfied for n>{last_fail + 1}")
            exact = exact and _stable(outcomes, half)
    return Verdict("convergence", worst, "; ".join(detail_bits), witness,
                   bounds.as_dict(), exact)


def _agreement(x: Point, goal: tuple) -> int:
    """How many leading coordinates of x equal those of goal, counting no
    further than x's length."""
    head = prefix(x, min(len(goal), length(x)))
    if head == goal[:len(head)]:
        return len(head)
    for k, sym in enumerate(head):
        if sym != goal[k]:
            return k
    return len(head)


def _stable(outcomes: list, half: int) -> bool:
    tail = outcomes[half:]
    return all(o == tail[0] for o in tail)


def _escape_outcomes(g: Ultragraph, target: FinitePoint, F: SymbolicSet,
                     term, n_max: int) -> list:
    """For n = 1..n_max, whether term n equals the target (path, A) or
    extends its path by an edge of eps(A) outside F."""
    k = len(target.path)

    def escapes(xn: Point) -> bool:
        if xn == target:
            return True
        if length(xn) <= k or prefix(xn, k) != target.path:
            return False
        nxt = coordinate(xn, k + 1)
        if isinstance(nxt, MinimalEmitter):
            return False
        return (g.source_in(nxt, target.tail.vertices)
                and not F.contains(nxt.family, nxt.index))
    return [escapes(term(n)) for n in range(1, n_max + 1)]


def _default_f_list(g: Ultragraph, target: FinitePoint):
    eps = g.epsilon(target.tail.vertices)
    frontier = [EdgeRef(f, k) for f, k in eps.sample(4)]
    out = [SymbolicSet.empty()]
    for t in range(1, len(frontier) + 1):
        out.append(SymbolicSet.of(*((e.family, IndexSet.of(e.index))
                                    for e in frontier[:t])))
    return tuple(out)


# -- witnesses for blocks ------------------------------------------------------


# successors sampled per step when block_witness extends a block; a
# continuity probe builds its approach points with it and echoes it as
# "index_bound"
WITNESS_INDEX_BOUND = 8


def block_witness(g: Ultragraph, block,
                  index_bound: int = WITNESS_INDEX_BOUND) -> Point | None:
    """A point carrying the block at position 1, built constructively:
    either the block already ends in an emitter tail, or the trailing edge
    is extended until an edge repeats (periodic closure) or an emitter tail
    becomes available."""
    syms = list(block.symbols)
    emitter_at = next((i for i, s in enumerate(syms)
                       if isinstance(s, MinimalEmitter)), None)
    if emitter_at is not None:
        return FinitePoint(tuple(syms[:emitter_at]), syms[emitter_at])
    path = list(syms)
    seen = {}
    for step in range(24):
        last = path[-1]
        if last in seen and seen[last] < len(path) - 1:
            i = seen[last]
            return PeriodicPoint(tuple(path[:i]), tuple(path[i:-1]))
        seen[last] = len(path) - 1
        tails = g.range_emitters(last)
        cands = g.successor_sample(last, index_bound)
        if not cands:
            if tails:
                return FinitePoint(tuple(path), tails[0])
            return None
        path.append(cands[0])
    return None
