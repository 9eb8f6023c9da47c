"""Finite paths, ultrapaths, and the block language of an ultragraph shift.

An ultrapath is a finite (possibly empty) edge sequence together with a
terminal vertex set from the graph's generated algebra, contained in the
range of the last edge.  Blocks are words over the shift's alphabet (edges
plus minimal infinite emitters) that occur as consecutive coordinates of
some point; emitter symbols only ever occur as a constant trailing run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EdgeRef, MinimalEmitter, Ultragraph
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

    def __str__(self) -> str:
        inner = " ".join(str(e) for e in self.edges)
        sep = " | " if inner else ""
        return f"({inner}{sep}{self.terminal})"


def edges_adjacent(g: Ultragraph, prev: EdgeRef, nxt: EdgeRef) -> bool:
    return g.adjacent(prev, nxt)


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


def enumerate_blocks(g: Ultragraph, n: int, index_bound: int) -> list[Block]:
    """All length-n blocks whose edge indices lie in [-index_bound,
    index_bound].  Complete relative to the bound; exact for finite graphs
    once the bound covers every index."""
    if n < 1:
        raise ValueError("block length must be at least 1")
    emitters, _ = g.minimal_infinite_emitters()
    first = [*g.bounded_all_edges(index_bound, 0), *emitters]
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
