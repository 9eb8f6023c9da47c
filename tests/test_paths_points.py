"""Paths, points, shift map, cylinders, and convergence."""

import ast
import pathlib
import random

import pytest

from ultrashift.corpus import (
    d,
    e,
    f,
    graph_a_source,
    graph_a_target,
    graph_d_source,
    graph_d_target,
)
from ultrashift.graphs import EdgeRef, MinimalEmitter
from ultrashift.intsets import INFINITE, IndexSet, SymbolicSet
from ultrashift.paths import PathError, Ultrapath, enumerate_blocks
from ultrashift.points import (
    ConvergenceBounds,
    Cylinder,
    FinitePoint,
    PeriodicPoint,
    PointError,
    RepeatFamily,
    block_witness,
    check_convergence,
    concat,
    coordinate,
    cylinder_contains,
    is_prefix,
    length,
    neighborhood_basis,
    prefix,
    shift,
    shift_cylinder,
    shift_n,
    validate_point,
)
from ultrashift import paths, sampling

GA = graph_a_source()
HA = graph_a_target()
GD = graph_d_source()
HD = graph_d_target()

A_W = GA.minimal_infinite_emitters()[0][0]      # the single-vertex tail of G_a
B_V = HA.minimal_infinite_emitters()[0][0]      # the single-vertex tail of H_a
P, Q = sorted(HD.minimal_infinite_emitters()[0],
              key=lambda m: str(m.vertices))    # P = w[<=-1], Q = w[>=1]
A_D = GD.minimal_infinite_emitters()[0][0]      # all of v in G_d


def test_fixture_emitter_names():
    assert P.vertices == SymbolicSet.of(("w", IndexSet.at_most(-1)))
    assert Q.vertices == SymbolicSet.of(("w", IndexSet.at_least(1)))


# -- ultrapaths ---------------------------------------------------------------


def test_ultrapath_validation():
    # a path is checked as the point it starts: consecutive edges must meet
    assert validate_point(HD, FinitePoint((f(-2), f(-1)), Q)) == []
    bad = validate_point(HD, FinitePoint((f(-2), f(-3)), P))
    assert f"{f(-2)} does not connect to {f(-3)}" in bad


def test_concat_zero_length_left_factor_disappears():
    x = Ultrapath((), A_W.vertices)
    z = PeriodicPoint((), (d(),))
    assert concat(GA, x, z) == z


def test_concat_zero_length_right_factor_keeps_its_tail():
    x = Ultrapath((d(),), GA.range_of(d()))
    assert concat(GA, x, FinitePoint((), A_W)) == FinitePoint((d(),), A_W)


def test_concat_of_paths_in_graph_d_target():
    x = Ultrapath((f(-2),), SymbolicSet.singleton("w", -1))
    y = FinitePoint((f(-1),), Q)
    assert concat(HD, x, y) == FinitePoint((f(-2), f(-1)), Q)


def test_concat_incompatible_raises():
    # source w[3] of f[3], and the tail P, are not in {w[-1]}
    x = Ultrapath((f(-2),), SymbolicSet.singleton("w", -1))
    for pt in (FinitePoint((f(3),), Q), FinitePoint((), P)):
        with pytest.raises(PathError):
            concat(HD, x, pt)


def test_paths_module_imports_nothing_from_points():
    # points are built on paths, so the dependency runs one way
    tree = ast.parse(pathlib.Path(paths.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not {m for m in imported if m.split(".")[-1] == "points"}


def test_concat_with_points():
    x = Ultrapath((f(-2),), SymbolicSet.singleton("w", -1))
    y = FinitePoint((f(-1),), Q)
    assert concat(HD, x, y) == FinitePoint((f(-2), f(-1)), Q)
    z = PeriodicPoint((f(-1),), (f(2),))
    got = concat(HD, x, z)
    assert got == PeriodicPoint((f(-2), f(-1)), (f(2),))


def test_concat_lengths_add():
    rng = random.Random(7)
    for _ in range(30):
        pt = sampling.random_point(HD, rng)
        if length(pt) == 0:
            continue
        cut = rng.randint(1, 3 if length(pt) == INFINITE else int(length(pt)))
        edges = tuple(coordinate(pt, i) for i in range(1, cut + 1))
        left = Ultrapath(edges, HD.range_of(edges[-1]))
        right = shift_n(pt, cut)
        whole = concat(HD, left, right)
        assert whole == pt
        assert length(whole) == len(left) + length(right)


def test_concat_associative_on_sampled_triples():
    # (a b) z = a (b z) for ultrapaths a, b and a point z
    rng = random.Random(11)
    for _ in range(30):
        pt = sampling.random_point(GD, rng)
        if length(pt) < 3:
            continue
        a, b = coordinate(pt, 1), coordinate(pt, 2)
        ua = Ultrapath((a,), GD.range_of(a))
        ub = Ultrapath((b,), GD.range_of(b))
        uab = Ultrapath((a, b), GD.range_of(b))
        z = shift_n(pt, 2)
        assert concat(GD, uab, z) == concat(GD, ua, concat(GD, ub, z)) == pt


# -- prefix -------------------------------------------------------------------


def test_a_finite_points_path_is_a_prefix_with_its_tail_as_remainder():
    up = Ultrapath((f(-2), f(-1)), Q.vertices)
    ok, rem = is_prefix(HD, up, FinitePoint(up.edges, Q))
    assert ok and rem == FinitePoint((), Q)


def test_zero_length_prefix_of_infinite_point():
    x = PeriodicPoint((), (d(),))
    ok, rem = is_prefix(GA, Ultrapath((), A_W.vertices), x)
    assert ok and rem is x


def test_prefix_symbol_mismatch():
    y = Ultrapath((EdgeRef("e", 1), EdgeRef("e", 2)), HA.range_of(e(2)))
    x = PeriodicPoint((e(1),), (e(3),))
    ok, rem = is_prefix(HA, y, x)
    assert not ok and rem is None


def test_prefix_of_concat_holds():
    rng = random.Random(3)
    for _ in range(25):
        pt = sampling.random_point(GD, rng)
        if length(pt) == 0:
            continue
        k = rng.randint(1, min(3, int(length(pt)) if length(pt) != INFINITE else 3))
        edges = tuple(coordinate(pt, i) for i in range(1, k + 1))
        y = Ultrapath(edges, GD.range_of(edges[-1]))
        ok, rem = is_prefix(GD, y, pt)
        assert ok
        assert concat(GD, y, rem) == pt


def test_finite_point_prefix_requires_tail_inclusion():
    x = FinitePoint((f(-2), f(-1)), Q)
    y_good = Ultrapath((f(-2), f(-1)), Q.vertices)
    y_bad = Ultrapath((f(-2), f(-1)), SymbolicSet.singleton("w", 5))
    assert is_prefix(HD, y_good, x)[0]
    assert not is_prefix(HD, y_bad, x)[0]


# -- blocks -------------------------------------------------------------------


def test_blocks_of_length_one_in_graph_a():
    got = enumerate_blocks(GA, 1, 2)
    syms = {b.symbols[0] for b in got}
    assert syms == {d(), f(1), f(2), A_W}


def test_blocks_of_length_two_in_graph_d_target():
    got = {b.symbols for b in enumerate_blocks(HD, 2, 3)}
    assert (f(-2), f(-1)) in got
    assert (f(-1), Q) in got
    assert (f(-2), f(-3)) not in got


def test_block_validation_rules():
    # emitters only as a trailing run inside the last edge's range, and
    # consecutive edges adjacent
    two = {b.symbols for b in enumerate_blocks(HD, 2, 3)}
    three = {b.symbols for b in enumerate_blocks(HD, 3, 3)}
    assert (f(-2), f(-1), Q) in three
    assert (Q, Q) in two
    assert (Q, f(1)) not in two         # emitter then edge
    assert (f(-2), Q) not in two        # Q not inside {w[-1]}
    assert (f(-2), f(-3)) not in two


def test_emitter_blocks_repeat():
    got = {b.symbols for b in enumerate_blocks(GA, 2, 1)}
    assert (A_W, A_W) in got
    assert (d(), A_W) in got
    assert all(not (isinstance(s1, MinimalEmitter) and s1 != s2)
               for s1, s2 in got if isinstance(s1, MinimalEmitter))


def test_every_enumerated_block_has_a_point_witness():
    for g in (GA, HD, GD):
        for block in enumerate_blocks(g, 2, 2):
            w = block_witness(g, block)
            assert w is not None, f"no witness for {block} in {g.name}"
            assert validate_point(g, w) == []
            assert all(coordinate(w, i + 1) == s
                       for i, s in enumerate(block.symbols))


# -- coordinates, shift -------------------------------------------------------


def test_coordinate_of_zero_length_point():
    x = FinitePoint((), A_W)
    assert coordinate(x, 5) == A_W
    assert length(x) == 0


def test_coordinate_of_eventually_periodic_point():
    x = PeriodicPoint((e(1), e(1)), (e(2),))
    assert coordinate(x, 3) == e(2)
    assert coordinate(x, 2) == e(1)


def test_coordinate_of_finite_point_tail():
    x = FinitePoint((f(-2), f(-1)), Q)
    assert coordinate(x, 3) == Q
    assert validate_point(HD, x) == []


@pytest.mark.parametrize("x", [
    FinitePoint((), A_W),
    FinitePoint((f(-2), f(-1)), Q),
    PeriodicPoint((), (d(),)),
    PeriodicPoint((d(), f(2)), (f(3), f(1), d())),
], ids=str)
def test_prefix_reads_what_coordinate_reads(x):
    # n runs past a finite path (the tail repeats) and over several laps of
    # a cycle, starting at the empty prefix
    for n in range(0, 12):
        assert prefix(x, n) == tuple(coordinate(x, i) for i in range(1, n + 1))
    assert prefix(x, 0) == ()
    with pytest.raises(PointError):
        prefix(x, -1)


def test_shift_fixes_zero_length_points():
    x = FinitePoint((), A_W)
    assert shift(x) == x


def test_shift_drops_first_edge():
    x = FinitePoint((f(-2), f(-1)), Q)
    assert shift(x) == FinitePoint((f(-1),), Q)
    y = PeriodicPoint((d(), d()), (f(1),))
    assert shift(y) == PeriodicPoint((d(),), (f(1),))


def test_shift_length_law_and_fixed_points():
    rng = random.Random(5)
    for g in (GA, GD, HD):
        for _ in range(20):
            x = sampling.random_point(g, rng)
            lx = length(x)
            expect = INFINITE if lx == INFINITE else max(lx - 1, 0)
            assert length(shift(x)) == expect
            if isinstance(x, FinitePoint):
                assert (shift(x) == x) == (lx == 0)


def test_periodic_canonicalization():
    assert PeriodicPoint((), (d(), d())) == PeriodicPoint((), (d(),))
    assert PeriodicPoint((d(),), (d(),)) == PeriodicPoint((), (d(),))
    assert PeriodicPoint((f(1),), (d(), f(1))) == PeriodicPoint(
        (), (f(1), d()))


def test_shifted_periodic_points_are_canonical():
    # shift skips the constructor's canonicalization; rebuilding through
    # the constructor must change nothing
    rng = random.Random(9)
    points = [x for g in (GA, GD, HD)
              for x in sampling.point_pool(g, rng, 40)
              if isinstance(x, PeriodicPoint)]
    tail = PeriodicPoint((), (f(1),))
    points += [RepeatFamily(block, tail).at(n)
               for block in [(d(),), (d(), f(1)), (f(1), d(), d())]
               for n in range(4)]
    checked = 0
    for x in points:
        for _ in range(len(x.preamble) + 2 * len(x.cycle) + 1):
            x = shift(x)
            rebuilt = PeriodicPoint(x.preamble, x.cycle)
            assert x == rebuilt and hash(x) == hash(rebuilt)
            checked += 1
    assert checked > 100


# -- cylinders ----------------------------------------------------------------


def test_cylinder_membership_examples():
    D = Cylinder(Ultrapath((), B_V.vertices),
                 SymbolicSet.singleton("e", 1))
    assert cylinder_contains(HA, D, PeriodicPoint((), (e(2),)))
    assert cylinder_contains(HA, D, FinitePoint((), B_V))
    assert not cylinder_contains(HA, D, PeriodicPoint((), (e(1),)))


def test_cylinder_over_own_prefix_contains_point():
    x = PeriodicPoint((), (f(1),))
    Dx = neighborhood_basis(HD, x, depth=2)
    assert cylinder_contains(HD, Dx, x)


def test_cylinder_with_ray_base_uses_source_membership():
    D = Cylinder(Ultrapath((), P.vertices))
    x = PeriodicPoint((f(-3), f(-2), f(-1)), (f(1),))
    assert cylinder_contains(HD, D, x)
    assert not cylinder_contains(HD, D, PeriodicPoint((), (f(1),)))
    assert cylinder_contains(HD, D, FinitePoint((), P))
    assert not cylinder_contains(HD, D, FinitePoint((), Q))


def test_shift_cylinder_law_on_samples():
    rng = random.Random(13)
    for g in (GA, GD, HD):
        for _ in range(40):
            D = sampling.random_cylinder(g, rng, min_base=1)
            sD = shift_cylinder(D)
            for _ in range(8):
                x = sampling.random_point(g, rng)
                if cylinder_contains(g, D, x):
                    assert cylinder_contains(g, sD, shift(x))
                if cylinder_contains(g, sD, x):
                    # find a preimage through the dropped base edge
                    yedges = (D.base.edges[0],)
                    pre = concat(g, Ultrapath(yedges, g.range_of(yedges[-1])), x)
                    assert cylinder_contains(g, D, pre)


def test_shift_cylinder_rejects_zero_length_base():
    D = Cylinder(Ultrapath((), A_W.vertices))
    with pytest.raises(Exception):
        shift_cylinder(D)


def test_shift_cylinder_keeps_exclusions():
    D = Cylinder(Ultrapath((d(), d()), A_W.vertices),
                 SymbolicSet.singleton("f", 1))
    sD = shift_cylinder(D)
    assert sD.base.edges == (d(),)
    assert sD.excluded == D.excluded


def test_neighborhood_basis_infinite_point():
    x = PeriodicPoint((), (e(1),))
    D = neighborhood_basis(HA, x, depth=3)
    assert D.base.edges == (e(1), e(1), e(1))
    assert D.base.terminal == HA.range_of(e(1))


def test_neighborhood_basis_finite_point_excluded_set():
    x = FinitePoint((), A_W)
    D = neighborhood_basis(GA, x, excluded=SymbolicSet.singleton("d", 0))
    assert D.base == Ultrapath((), A_W.vertices)
    assert D.excluded == SymbolicSet.singleton("d", 0)


def test_neighborhood_basis_nesting():
    x = PeriodicPoint((), (f(1),))
    rng = random.Random(23)
    D2 = neighborhood_basis(HD, x, depth=2)
    D4 = neighborhood_basis(HD, x, depth=4)
    for _ in range(20):
        y = sampling.random_point(HD, rng)
        if cylinder_contains(HD, D4, y):
            assert cylinder_contains(HD, D2, y)


# -- convergence --------------------------------------------------------------


def test_convergence_to_infinite_target():
    fam = RepeatFamily((d(),), PeriodicPoint((), (f(1),)))
    target = PeriodicPoint((), (d(),))
    verdict = check_convergence(GA, fam, target)
    assert verdict.status == "holds" and verdict.exact


def test_convergence_to_zero_length_target_depends_on_excluded_set():
    fam = RepeatFamily((d(),), PeriodicPoint((), (f(1),)))
    target = FinitePoint((), A_W)
    ok = check_convergence(GA, fam, target, ConvergenceBounds(
        f_list=(SymbolicSet.singleton("f", 1),)))
    assert ok.status == "holds"
    bad = check_convergence(GA, fam, target, ConvergenceBounds(
        f_list=(SymbolicSet.singleton("d", 0),)))
    assert bad.status == "fails"


def test_constant_sequence_converges():
    for target in (PeriodicPoint((), (d(),)), FinitePoint((), A_W)):
        verdict = check_convergence(GA, lambda n: target, target)
        assert verdict.status == "holds"


def test_finite_target_escape_condition():
    # terms extend the target path and escape every fixed finite set
    target = FinitePoint((d(),), A_W)

    def seq(n):
        return FinitePoint((d(), f(n)), A_W)

    verdict = check_convergence(GA, seq, target)
    assert verdict.status == "holds"


def test_divergent_sequence_is_flagged():
    target = PeriodicPoint((), (d(),))

    def seq(n):
        return PeriodicPoint((), (f(1),))

    verdict = check_convergence(GA, seq, target)
    assert verdict.status == "fails"
