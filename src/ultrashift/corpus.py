"""Built-in fixture graphs and maps used as the oracle test bed.

Four named fixtures, each bundling source/target graphs, one or two shift
commuting maps, interesting points, convergent sequences, and a table of
expected checker verdicts.  They double as regression oracles for the
whole artifact: ``run_fixture`` compares every expected verdict against a
fresh computation and returns one verdict per comparison.

Fixture summary:
  a - two one-vertex graphs with countably many loops; the map collapses a
      run of d-loops onto the following f-loop's index.  Shift commuting
      but discontinuous at the all-d point, and the class of the target
      tail symbol is not finitely defined.
  b - one graph whose edges are indexed by the naturals; the map counts
      the zeros following a coordinate.  Continuous and shift commuting,
      yet the class of the tail symbol is again not finitely defined.
  c - the graphs of fixture a with two partition maps, one satisfying and
      one violating the orbit condition at the zero-length point.
  d - a two-graph pair with ray-shaped minimal emitters; the map is
      invertible, continuous and shift commuting, its inverse is a
      generalized sliding block code but the forward map is not.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass, field

from .intsets import (
    IDENTITY_MAP,
    IndexSet,
    SymbolicSet,
    const_map,
    shift_map,
)
from .graphs import (EdgeFamily, EdgeRef, GraphError, MinimalEmitter,
                     RangeCase, SourceCase, Ultragraph)


def _loop_graph(name: str, vname: str, efams) -> Ultragraph:
    """One vertex, every edge a loop on it."""
    vdom = IndexSet.between(0, 0)
    fams = []
    for ename, edom in efams:
        fams.append(EdgeFamily(
            ename, edom,
            source=(SourceCase(edom, vname, const_map(0)),),
            ranges=(RangeCase(edom, SymbolicSet.singleton(vname, 0)),),
        ))
    return Ultragraph(name, {vname: vdom}, fams)


def graph_a_source() -> Ultragraph:
    """Single vertex w; loops d and f[1], f[2], ..."""
    return _loop_graph("G_a", "w", [("d", IndexSet.between(0, 0)),
                                    ("f", IndexSet.at_least(1))])


def graph_a_target() -> Ultragraph:
    """Single vertex v; loops e[1], e[2], ..."""
    return _loop_graph("H_a", "v", [("e", IndexSet.at_least(1))])


def graph_b() -> Ultragraph:
    """Single vertex w; loops n[0], n[1], n[2], ... (n[0] plays 'zero')."""
    return _loop_graph("G_b", "w", [("n", IndexSet.at_least(0))])


def graph_d_source() -> Ultragraph:
    """Vertices v[k], k >= 0; edges e[k] with source v[k]; e[0] ranges over
    every vertex, e[k] over {v[0], v[k]} for k >= 1."""
    n = IndexSet.at_least(0)
    ef = EdgeFamily(
        "e", n,
        source=(SourceCase(n, "v", IDENTITY_MAP),),
        ranges=(
            RangeCase(IndexSet.between(0, 0),
                      SymbolicSet.of(("v", IndexSet.at_least(0)))),
            RangeCase(IndexSet.at_least(1),
                      SymbolicSet.singleton("v", 0),
                      atoms=(("v", IDENTITY_MAP),)),
        ),
    )
    return Ultragraph("G_d", {"v": n}, [ef])


def graph_d_target() -> Ultragraph:
    """Vertices w[k], k nonzero; edges f[k] with source w[k]; ranges
    {w[k+1]} for k <= -2, {w[l] : l >= 1} for k = -1, and
    {w[k]} ∪ {w[l] : l <= -1} for k >= 1."""
    zs = IndexSet.nonzero()
    ef = EdgeFamily(
        "f", zs,
        source=(SourceCase(zs, "w", IDENTITY_MAP),),
        ranges=(
            RangeCase(IndexSet.at_most(-2), atoms=(("w", shift_map(1)),)),
            RangeCase(IndexSet.between(-1, -1),
                      SymbolicSet.of(("w", IndexSet.at_least(1)))),
            RangeCase(IndexSet.at_least(1),
                      SymbolicSet.of(("w", IndexSet.at_most(-1))),
                      atoms=(("w", IDENTITY_MAP),)),
        ),
    )
    return Ultragraph("H_d", {"w": zs}, [ef])


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


# convenient refs for tests

def d() -> EdgeRef:
    return EdgeRef("d", 0)


def f(i: int) -> EdgeRef:
    return EdgeRef("f", i)


def e(i: int) -> EdgeRef:
    return EdgeRef("e", i)


def n(i: int) -> EdgeRef:
    return EdgeRef("n", i)


# -- fixtures -------------------------------------------------------------------

from .codes import (  # noqa: E402  (fixtures sit on top of the whole stack)
    MapPresentation,
    OracleClass,
    RuleMap,
    SchemaClass,
    class_membership_oracle,
    check_commuting,
    check_csc_item_i,
    check_csc_item_iii,
    check_length_preserving,
    eval_map,
    probe_continuity,
    validate_partition,
)
from .definable import (  # noqa: E402
    LitAtom,
    PcSchema,
    RepAtom,
    SetOracle,
    VarAtom,
    refute_finitely_defined,
)
from .points import (  # noqa: E402
    FinitePoint,
    PeriodicPoint,
    Point,
    RepeatFamily,
    coordinate,
)
from .verdicts import FAILS, HOLDS, Verdict  # noqa: E402
from . import sampling  # noqa: E402


def _sole_emitter(g: Ultragraph, name: str) -> MinimalEmitter:
    emitters, _ = g.minimal_infinite_emitters()
    if len(emitters) != 1:
        raise GraphError(f"{g.name} has {len(emitters)} minimal infinite "
                         f"emitters, not one")
    return dataclasses.replace(emitters[0], name=name)


def _named_emitters(g: Ultragraph, names: dict) -> dict:
    emitters, _ = g.minimal_infinite_emitters()
    out = {}
    for m in emitters:
        for name, vertices in names.items():
            if m.vertices == vertices:
                out[name] = dataclasses.replace(m, name=name)
    missing = sorted(set(names) - set(out))
    if missing:
        raise GraphError(f"{g.name} has no minimal infinite emitter for "
                         f"{', '.join(missing)}")
    return out


def leading_run(x: Point, sym: EdgeRef) -> int | None:
    """Length of the initial constant run of ``sym`` in x; None when the
    run never ends."""
    if isinstance(x, FinitePoint):
        run = 0
        for edge in x.path:
            if edge != sym:
                return run
            run += 1
        return run  # the tail emitter always breaks the run
    seq = list(x.preamble) + list(x.cycle)
    for i, edge in enumerate(seq):
        if edge != sym:
            return i
    return None


@dataclass
class Expectation:
    key: str
    expected: str
    run: object  # () -> Verdict-like with .status


@dataclass
class Fixture:
    name: str
    source: Ultragraph
    target: Ultragraph
    maps: dict
    points: dict
    sequences: dict
    oracles: dict
    notes: str
    expectations: list = field(default_factory=list)

    @property
    def phi(self):
        return next(iter(self.maps.values()))

    def sample_pool(self, size: int = 40, seed: int = 0) -> list:
        return _sample_pool(self.source, self.points, size, seed)


def _sample_pool(g: Ultragraph, points: dict, size: int = 40,
                 seed: int = 0) -> list:
    """The named points, then a pool sampled from g.  Expectations call it
    bound to g and the points: a closure over their Fixture would make a
    reference cycle that keeps the fixture's graphs alive until the cycle
    collector runs."""
    rng = random.Random(seed)
    pool = list(points.values())
    pool += sampling.point_pool(g, rng, size)
    return pool


def _fixture_a() -> Fixture:
    g, h = graph_a_source(), graph_a_target()
    A = _sole_emitter(g, "A")
    B = _sole_emitter(h, "B")
    all_d = PeriodicPoint((), (d(),))

    def in_c_b(x: Point) -> bool:
        run = leading_run(x, d())
        return run is None or isinstance(coordinate(x, run + 1), MinimalEmitter)

    phi = MapPresentation(g, h, [
        OracleClass(B, in_c_b, "target tail class"),
        SchemaClass(
            body=[PcSchema(1, (VarAtom("f"),), IndexSet.at_least(1)),
                  PcSchema(1, (RepAtom(d()), VarAtom("f")),
                           IndexSet.at_least(1))],
            family="e", index_domain=IndexSet.at_least(1)),
    ], label="run-collapsing map")
    points = {
        "all_d": all_d,
        "zero": FinitePoint((), A),
        "d2_f3": PeriodicPoint((d(), d()), (f(3),)),
        "f3": PeriodicPoint((), (f(3),)),
        "d_then_zero": FinitePoint((d(),), A),
    }
    sequences = {
        "dn_f1": RepeatFamily((d(),), PeriodicPoint((), (f(1),)),
                              "growing d-runs into the f1 loop"),
    }
    oracles = {
        "C_B": SetOracle(in_c_b, label="preimage of the target tail"),
    }
    pool = functools.partial(_sample_pool, g, points)
    fx = Fixture(
        "a", g, h, {"phi": phi}, points, sequences, oracles,
        notes=("the map is shift commuting but not continuous at the all-d "
               "point, and the tail-symbol class is not finitely defined"))
    fx.expectations = [
        Expectation("partition", HOLDS,
                    lambda: validate_partition(phi, pool())),
        Expectation("commuting", HOLDS,
                    lambda: check_commuting(phi, pool())),
        Expectation("csc-item-i", HOLDS, lambda: check_csc_item_i(phi)),
        Expectation("probe-continuity@all_d", FAILS,
                    lambda: probe_continuity(phi, all_d)),
        Expectation("refute-fd(C_B)", "refuted",
                    lambda: refute_finitely_defined(
                        g, oracles["C_B"], all_d, 6)),
    ]
    return fx


def _fixture_b() -> Fixture:
    g = graph_b()
    A = _sole_emitter(g, "A")
    all_zero = PeriodicPoint((), (n(0),))

    def rule(x: Point):
        c1 = coordinate(x, 1)
        if isinstance(c1, MinimalEmitter):
            return A
        if c1.index != 0:
            return c1
        run = leading_run(x, n(0))
        if run is None:
            return A
        return n(run - 1)

    phi = RuleMap(g, g, rule, "zero-run counting map")
    points = {
        "all_zero": all_zero,
        "zero": FinitePoint((), A),
        "spec_word": PeriodicPoint((n(0), n(0), n(2), n(1)), (n(0),)),
        "ones": PeriodicPoint((), (n(1),)),
    }
    sequences = {
        "zn_one": RepeatFamily((n(0),), PeriodicPoint((), (n(1),)),
                               "growing zero-runs into the one loop"),
    }
    oracles = {
        "C_A": SetOracle(class_membership_oracle(phi, A),
                         label="preimage of the tail symbol"),
    }
    pool = functools.partial(_sample_pool, g, points)
    fx = Fixture(
        "b", g, g, {"phi": phi}, points, sequences, oracles,
        notes=("continuous and shift commuting, but the tail-symbol class "
               "is not finitely defined, so the map is not a generalized "
               "sliding block code"))
    fx.expectations = [
        Expectation("commuting", HOLDS,
                    lambda: check_commuting(phi, pool())),
        Expectation("probe-continuity@all_zero", HOLDS,
                    lambda: probe_continuity(phi, all_zero)),
        Expectation("refute-fd(C_A)", "refuted",
                    lambda: refute_finitely_defined(
                        g, oracles["C_A"], all_zero, 6)),
        Expectation("length-preserving", FAILS,
                    lambda: check_length_preserving(
                        phi, pool())),
    ]
    return fx


def _fixture_c() -> Fixture:
    g, h = graph_a_source(), graph_a_target()
    A = _sole_emitter(g, "A")
    B = _sole_emitter(h, "B")

    # f[j] goes to e[j+1], d to e[1], so every class is one cylinder
    finite_classes = MapPresentation(g, h, [
        SchemaClass([PcSchema(1, (LitAtom(A),))], symbol=B),
        SchemaClass([PcSchema(1, (LitAtom(d()),))], symbol=e(1)),
        SchemaClass([PcSchema(1, (VarAtom("f", shift_map(-1)),),
                              IndexSet.at_least(2))],
                    family="e", index_domain=IndexSet.at_least(2)),
    ], label="one-cylinder classes")
    # same relabeling, but the zero-length point joins the class of e[1],
    # leaving infinitely many nonempty classes and no tail class
    infinite_classes = MapPresentation(g, h, [
        SchemaClass([PcSchema(1, (LitAtom(d()),)),
                     PcSchema(1, (LitAtom(A),))], symbol=e(1)),
        SchemaClass([PcSchema(1, (VarAtom("f", shift_map(-1)),),
                              IndexSet.at_least(2))],
                    family="e", index_domain=IndexSet.at_least(2)),
    ], label="tail-to-edge classes")
    zero = FinitePoint((), A)
    points = {"zero": zero, "all_d": PeriodicPoint((), (d(),))}
    pool = functools.partial(_sample_pool, g, points)
    fx = Fixture(
        "c", g, h,
        {"phi_finite": finite_classes, "phi_infinite": infinite_classes},
        points, {}, {},
        notes=("two relabeling maps on the loop graphs: with a tail class "
               "all conditions hold; sending the zero-length point to an "
               "edge symbol breaks the orbit condition there"))
    fx.expectations = [
        Expectation("partition(finite)", HOLDS,
                    lambda: validate_partition(finite_classes,
                                               pool())),
        Expectation("partition(infinite)", HOLDS,
                    lambda: validate_partition(infinite_classes,
                                               pool())),
        Expectation("commuting(finite)", HOLDS,
                    lambda: check_commuting(finite_classes, pool())),
        Expectation("csc-item-i(finite)", HOLDS,
                    lambda: check_csc_item_i(finite_classes)),
        Expectation("length-preserving(finite)", HOLDS,
                    lambda: check_length_preserving(
                        finite_classes, pool())),
        Expectation("csc-item-iii(infinite)", FAILS,
                    lambda: check_csc_item_iii(infinite_classes, A, M=2)),
        Expectation("probe-continuity@zero(infinite)", FAILS,
                    lambda: probe_continuity(infinite_classes, zero)),
    ]
    return fx


def _fixture_d() -> Fixture:
    g, h = graph_d_source(), graph_d_target()
    A = _sole_emitter(g, "A")
    named = _named_emitters(h, {
        "P": SymbolicSet.of(("w", IndexSet.at_most(-1))),
        "Q": SymbolicSet.of(("w", IndexSet.at_least(1))),
    })
    P, Q = named["P"], named["Q"]
    all_e0 = PeriodicPoint((), (e(0),))

    def rule(x: Point):
        c1 = coordinate(x, 1)
        if isinstance(c1, MinimalEmitter):
            return Q
        if c1.index != 0:
            return f(c1.index)
        run = leading_run(x, e(0))
        if run is None:
            return P
        return f(-run)

    phi = RuleMap(g, h, rule, "run-length map")
    phi_inv = MapPresentation(h, g, [
        SchemaClass([PcSchema(1, (VarAtom("f"),), IndexSet.at_least(1))],
                    family="e", index_domain=IndexSet.at_least(1)),
        SchemaClass([PcSchema(1, (VarAtom("f"),), IndexSet.at_most(-1)),
                     PcSchema(1, (LitAtom(P),))], symbol=e(0)),
        SchemaClass([PcSchema(1, (LitAtom(Q),))], symbol=A),
    ], label="inverse of the run-length map")
    points = {
        "all_e0": all_e0,
        "zero": FinitePoint((), A),
        "spec_word": PeriodicPoint((e(0), e(0)), (e(2),)),
        "e0_e0_zero": FinitePoint((e(0), e(0)), A),
    }
    sequences = {
        "e0n_e2": RepeatFamily((e(0),), PeriodicPoint((), (e(2),)),
                               "growing e0-runs into the e2 loop"),
    }
    oracles = {
        "C_P": SetOracle(class_membership_oracle(phi, P),
                         label="preimage of the tail symbol P"),
    }
    pool = functools.partial(_sample_pool, g, points)
    fx = Fixture(
        "d", g, h, {"phi": phi, "phi_inv": phi_inv}, points, sequences,
        oracles,
        notes=("invertible, continuous and shift commuting; the class of P "
               "is a single infinite point, so the forward map is not a "
               "generalized sliding block code, while the inverse is"))

    def inverse_identity() -> Verdict:
        rng = random.Random(4)
        samples = [all_e0, points["zero"], points["spec_word"]]
        while len(samples) < 50:
            samples.append(sampling.random_point(g, rng))
        for x in samples:
            y = eval_map(phi, x)
            back = eval_map(phi_inv, y)
            if back != x:
                return Verdict("inverse-identity", FAILS, "round trip broke",
                               (x, y, back))
        return Verdict("inverse-identity", HOLDS, "50 samples",
                       bounds={"samples": 50})

    fx.expectations = [
        Expectation("commuting", HOLDS,
                    lambda: check_commuting(phi, pool())),
        Expectation("partition(inverse)", HOLDS,
                    lambda: validate_partition(
                        phi_inv, _pool_of(h, 40))),
        Expectation("csc-item-i(inverse)", HOLDS,
                    lambda: check_csc_item_i(phi_inv)),
        Expectation("inverse-identity", HOLDS, inverse_identity),
        Expectation("refute-fd(C_P)", "refuted",
                    lambda: refute_finitely_defined(
                        g, oracles["C_P"], all_e0, 6)),
        Expectation("length-preserving", FAILS,
                    lambda: check_length_preserving(phi, pool())),
        Expectation("probe-continuity@all_e0", HOLDS,
                    lambda: probe_continuity(phi, all_e0)),
    ]
    return fx


def _pool_of(g: Ultragraph, size: int) -> list:
    return sampling.point_pool(g, random.Random(1), size)


_BUILDERS = {"a": _fixture_a, "b": _fixture_b, "c": _fixture_c,
             "d": _fixture_d}


def build_fixture(name: str) -> Fixture:
    if name not in _BUILDERS:
        raise KeyError(f"no fixture named {name!r}; choose from a, b, c, d")
    return _BUILDERS[name]()


def run_fixture(name: str) -> list[Verdict]:
    """One verdict per expectation of the fixture: it holds when a fresh
    computation gives the expected status."""
    out = []
    for exp in build_fixture(name).expectations:
        result = exp.run()
        actual = getattr(result, "status", str(result))
        detail = getattr(result, "detail", "")
        out.append(Verdict(f"fixture-{name}:{exp.key}",
                           HOLDS if actual == exp.expected else FAILS,
                           f"expected {exp.expected}, got {actual}"
                           + (f" | {detail}" if detail else "")))
    return out


def registry() -> dict:
    """Named oracles and sequences the text format and CLI can reference,
    keyed fixture-first: a.C_B, b.C_A, d.C_P, a.dn_f1, and so on."""
    reg: dict = {}
    for name in ("a", "b", "d"):
        fx = build_fixture(name)
        for key, oracle in fx.oracles.items():
            reg[f"{name}.{key}"] = oracle
        for key, seq in fx.sequences.items():
            reg[f"{name}.{key}"] = seq
    return reg
