"""Finite paths, ultrapaths, and the block language of an ultragraph shift.

An ultrapath is a finite (possibly empty) edge sequence together with a
terminal vertex set from the graph's generated algebra, contained in the
range of the last edge.  Blocks are words over the shift's alphabet (edges
plus minimal infinite emitters) that occur as consecutive coordinates of
some point; emitter symbols only ever occur as a constant trailing run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EdgeRef, MinimalEmitter, Ultragraph, bounded_edges
from .intsets import SymbolicSet


class PathError(ValueError):
    pass


@dataclass(frozen=True)
class Ultrapath:
    """A finite edge path with a terminal set; zero length when ``edges`` is
    empty, in which case the terminal carries all the information."""

    edges: tuple = ()
    terminal: SymbolicSet = SymbolicSet.empty()

    def __len__(self) -> int:
        return len(self.edges)

    def last(self) -> EdgeRef:
        return self.edges[-1]

    def __str__(self) -> str:
        inner = " ".join(str(e) for e in self.edges)
        sep = " | " if inner else ""
        return f"({inner}{sep}{self.terminal})"


def edges_adjacent(g: Ultragraph, prev: EdgeRef, nxt: EdgeRef) -> bool:
    return g.adjacent(prev, nxt)


def validate_ultrapath(g: Ultragraph, up: Ultrapath) -> list[str]:
    """Problems with the ultrapath; an 'unknown:' entry is a warning, any
    other entry is a hard violation."""
    problems = []
    for e in up.edges:
        if not g.has_edge(e):
            problems.append(f"edge {e} does not exist")
            return problems
    for prev, nxt in zip(up.edges, up.edges[1:]):
        if not edges_adjacent(g, prev, nxt):
            problems.append(f"source of {nxt} is not in the range of {prev}")
    if up.terminal.is_empty():
        problems.append("terminal set is empty")
        return problems
    if up.edges and not up.terminal.subset_of(g.range_of(up.last())):
        problems.append("terminal set is not contained in the last range")
    verdict, info = g.is_in_g0(up.terminal)
    if verdict == "no":
        problems.append(f"terminal set is outside the vertex-set algebra: {info}")
    elif verdict == "unknown":
        problems.append(f"unknown: algebra membership undecided ({info})")
    return problems


def concat_paths(g: Ultragraph, x: Ultrapath, y: Ultrapath) -> Ultrapath:
    """Concatenation of two ultrapaths, following the length-based case
    table: a zero-length left factor disappears, a zero-length right factor
    replaces the terminal."""
    check_concat_compatible(g, x, y)
    if not x.edges:
        return y
    if not y.edges:
        return Ultrapath(x.edges, y.terminal)
    return Ultrapath(x.edges + y.edges, y.terminal)


def check_concat_compatible(g: Ultragraph, x: Ultrapath, y: Ultrapath) -> None:
    """y may follow x when s(y) lies in r(x) (as element for positive
    length, as subset for length zero)."""
    r = x.terminal
    if y.edges:
        if not g.source_in(y.edges[0], r):
            raise PathError(f"source of {y.edges[0]} not in {r}")
    elif not y.terminal.subset_of(r):
        raise PathError(f"{y.terminal} is not a subset of {r}")


def minimal_emitters_in_range(g: Ultragraph, edges):
    """Minimal infinite emitters inside the range of a (validated) finite
    edge path.  Raises on an invalid path."""
    edges = tuple(edges)
    if not edges:
        raise PathError("the path must contain at least one edge")
    for e in edges:
        if not g.has_edge(e):
            raise PathError(f"edge {e} does not exist")
    for prev, nxt in zip(edges, edges[1:]):
        if not edges_adjacent(g, prev, nxt):
            raise PathError(f"source of {nxt} is not in the range of {prev}")
    return g.minimal_emitters_in(g.range_of(edges[-1]))


# -- blocks ------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A word over the alphabet: edges and minimal infinite emitters.

    Emitter symbols can only appear as a trailing constant run, because
    points carry them only as constant tails."""

    symbols: tuple

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return "(" + " ".join(str(s) for s in self.symbols) + ")"


def validate_block(g: Ultragraph, b: Block) -> list[str]:
    problems = []
    if not b.symbols:
        problems.append("blocks are nonempty")
        return problems
    emitters, _ = g.minimal_infinite_emitters()
    known = {m.vertices for m in emitters}
    for i, sym in enumerate(b.symbols):
        prev = b.symbols[i - 1] if i else None
        if isinstance(sym, MinimalEmitter):
            if sym.vertices not in known:
                problems.append(f"{sym} is not a minimal infinite emitter")
            if prev is None:
                continue
            if isinstance(prev, MinimalEmitter):
                if prev != sym:
                    problems.append("emitter tails are constant")
            elif not any(m == sym for m in g.range_emitters(prev)):
                problems.append(
                    f"{sym} is not a minimal emitter inside r({prev})")
        else:
            if not g.has_edge(sym):
                problems.append(f"edge {sym} does not exist")
            elif isinstance(prev, MinimalEmitter):
                problems.append("an emitter symbol cannot precede an edge")
            elif prev is not None and not edges_adjacent(g, prev, sym):
                problems.append(f"{prev} does not connect to {sym}")
    return problems


def enumerate_blocks(g: Ultragraph, n: int, index_bound: int) -> list[Block]:
    """All length-n blocks whose edge indices lie in [-index_bound,
    index_bound].  Complete relative to the bound; exact for finite graphs
    once the bound covers every index."""
    if n < 1:
        raise ValueError("block length must be at least 1")
    emitters, _ = g.minimal_infinite_emitters()
    first: list = bounded_edges(g.all_edges(), index_bound) + list(emitters)
    words = [[s] for s in first]
    for _ in range(n - 1):
        grown = []
        for w in words:
            last = w[-1]
            if isinstance(last, MinimalEmitter):
                grown.append(w + [last])
                continue
            for e2 in g.bounded_successors(last, index_bound):
                grown.append(w + [e2])
            for m in g.range_emitters(last):
                grown.append(w + [m])
        words = grown
    return [Block(tuple(w)) for w in words]
