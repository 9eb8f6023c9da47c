"""Small graphs that only tests use: one with sinks, and finite cycles."""

from ultrashift.graphs import EdgeFamily, RangeCase, SourceCase, Ultragraph
from ultrashift.intsets import IDENTITY_MAP, IndexSet, SymbolicSet, const_map


def graph_sinky() -> Ultragraph:
    """Vertices u[k], k >= 0, but only u[0] emits: everything else sinks."""
    n = IndexSet.at_least(0)
    ef = EdgeFamily(
        "g", n,
        source=(SourceCase(n, "u", const_map(0)),),
        ranges=(RangeCase(n, SymbolicSet.singleton("u", 0)),),
    )
    return Ultragraph("Sinky", {"u": n}, [ef])


def finite_cycle_graph(size: int = 3) -> Ultragraph:
    """Finite graph: vertices u[0..size-1], edges c[k] from u[k] to u[k+1 mod size]
    plus a chord edge b[0] from u[0] to {u[0], u[1]}."""
    dom = IndexSet.between(0, size - 1)
    cases_src = (SourceCase(dom, "u", IDENTITY_MAP),)
    ranges = tuple(
        RangeCase(IndexSet.of(k), SymbolicSet.singleton("u", (k + 1) % size))
        for k in range(size))
    cyc = EdgeFamily("c", dom, cases_src, ranges)
    b = EdgeFamily(
        "b", IndexSet.between(0, 0),
        (SourceCase(IndexSet.between(0, 0), "u", const_map(0)),),
        (RangeCase(IndexSet.between(0, 0),
                   SymbolicSet.of(("u", IndexSet.between(0, 1)))),),
    )
    return Ultragraph(f"Cycle{size}", {"u": dom}, [cyc, b])
