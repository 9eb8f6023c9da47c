"""Pseudo cylinders, schemas, cylinder decomposition, finite-definedness."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

import ultrashift

from ultrashift.corpus import (
    d,
    f,
    n,
    graph_a_source,
    graph_b,
    graph_d_target,
    finite_cycle_graph,
)
from ultrashift.definable import (
    EMPTY_PC,
    FdBounds,
    FdPresentation,
    LitAtom,
    PcSchema,
    RepAtom,
    SchemaError,
    SetOracle,
    VarAtom,
    decompose_cylinder,
    fd_intersect,
    fd_union,
    match_schema,
    pc_contains,
    pseudo_cylinder,
    refute_finitely_defined,
    sample_points,
    schema_intersect,
    side_matches,
    validate_fd_presentation,
)
from ultrashift.intsets import IndexSet, SymbolicSet
from ultrashift.paths import Block, Ultrapath
from ultrashift.points import (
    Cylinder,
    FinitePoint,
    PeriodicPoint,
    cylinder_contains,
    length,
)
from ultrashift import sampling

GA = graph_a_source()
GB = graph_b()
HD = graph_d_target()
A_W = GA.minimal_infinite_emitters()[0][0]
A_B = GB.minimal_infinite_emitters()[0][0]
P, Q = sorted(HD.minimal_infinite_emitters()[0], key=lambda m: str(m.vertices))

ALL_D = PeriodicPoint((), (d(),))
ALL_ZERO = PeriodicPoint((), (n(0),))


# -- schema matching ----------------------------------------------------------


def test_plain_pseudo_cylinder_membership():
    pc = pseudo_cylinder(Block((d(), d(), f(1))), 1)
    assert pc_contains(pc, PeriodicPoint((d(), d()), (f(1),)))
    assert not pc_contains(pc, PeriodicPoint((d(),), (f(1),)))


def test_rep_schema_reports_parameter_and_count():
    s = PcSchema(1, (RepAtom(d()), VarAtom("f")), IndexSet.at_least(1))
    x = PeriodicPoint((d(), d(), d()), (f(5),))
    m = match_schema(s, x)
    assert m is not None and m.param == 5 and m.rep_count == 3
    assert m.window == (1, 4)


def test_emitter_tail_symbols_are_matchable():
    pc = PcSchema(1, (LitAtom(A_W), LitAtom(A_W)))
    assert pc_contains(pc, FinitePoint((), A_W))
    assert not pc_contains(pc, ALL_D)


def test_schema_anchored_past_the_start():
    pc = PcSchema(2, (LitAtom(f(1)),))
    assert pc_contains(pc, PeriodicPoint((d(),), (f(1),)))
    assert not pc_contains(pc, PeriodicPoint((f(1), d()), (f(2),)))


def test_rep_then_emitter_tail():
    s = PcSchema(1, (RepAtom(d()), LitAtom(A_W)))
    m = match_schema(s, FinitePoint((d(), d()), A_W))
    assert m is not None and m.rep_count == 2 and m.param is None
    assert not pc_contains(s, ALL_D)


def test_var_schema_solves_affine_index():
    from ultrashift.intsets import shift_map

    s = PcSchema(1, (VarAtom("f", shift_map(1)),), IndexSet.at_least(1))
    m = match_schema(s, PeriodicPoint((), (f(4),)))
    assert m is not None and m.param == 3
    assert match_schema(s, PeriodicPoint((), (f(1),))) is None  # j=0 outside


def test_empty_pseudo_cylinder_matches_nothing():
    assert not pc_contains(EMPTY_PC, ALL_D)


def test_schema_constraints_enforced():
    with pytest.raises(SchemaError):
        PcSchema(1, (RepAtom(d()), RepAtom(f(1))))
    with pytest.raises(SchemaError):
        PcSchema(1, (VarAtom("f"),))  # no parameter domain
    with pytest.raises(SchemaError):
        PcSchema(0, (LitAtom(d()),))


def test_constant_index_var_atom_is_a_schema_error():
    # an atom with a constant index reads no parameter, so a family class
    # could not place its matches; an edge literal names the same edge
    from ultrashift.codes import SchemaClass
    from ultrashift.intsets import const_map

    with pytest.raises(SchemaError, match="edge literal"):
        SchemaClass([PcSchema(1, (VarAtom("n", const_map(1)),),
                              IndexSet.at_least(0))],
                    family="n", index_domain=IndexSet.at_least(0))
    with pytest.raises(SchemaError, match="edge literal"):
        schema_intersect(
            GB, PcSchema(1, (VarAtom("n"),), IndexSet.at_least(0)),
            PcSchema(1, (VarAtom("n", const_map(1)),), IndexSet.at_least(0)))


# -- cylinder decomposition -----------------------------------------------------


def test_decomposition_of_zero_length_cylinder_in_graph_a():
    D = Cylinder(Ultrapath((), A_W.vertices), SymbolicSet.singleton("d", 0))
    pres = decompose_cylinder(GA, D)
    var_schemas = [s for s in pres.positive if any(
        isinstance(a, VarAtom) for a in s.atoms)]
    assert len(var_schemas) == 1
    assert var_schemas[0].atoms == (VarAtom("f"),)
    assert var_schemas[0].param_domain == IndexSet.at_least(1)
    assert any(s.atoms == (LitAtom(A_W),) for s in pres.positive)
    neg_vars = [s for s in pres.negative if any(
        isinstance(a, VarAtom) for a in s.atoms)]
    assert any(s.param_domain == IndexSet.between(0, 0)
               and s.atoms[0].family == "d" for s in neg_vars)


def test_decomposition_matches_cylinder_membership_everywhere():
    rng = random.Random(42)
    for g in (GA, HD, finite_cycle_graph()):
        for _ in range(25):
            D = sampling.random_cylinder(g, rng)
            pres = decompose_cylinder(g, D)
            for x in sample_points(g, FdBounds(depth=3, index_bound=3,
                                               samples=25, seed=1)):
                inside = cylinder_contains(g, D, x)
                assert pres.member(x) == inside
                assert (side_matches(pres.negative, x) is not None) == (
                    not inside)


def test_fully_excluded_cylinder_is_empty():
    base = Ultrapath((f(-6),), SymbolicSet.singleton("w", -5))
    D = Cylinder(base, SymbolicSet.of(("f", IndexSet.of(-5))))
    pres = decompose_cylinder(HD, D)
    assert not any(isinstance(a, VarAtom)
                   for s in pres.positive for a in s.atoms)
    for x in sample_points(HD, FdBounds(depth=3, index_bound=7, samples=20)):
        assert not cylinder_contains(HD, D, x)
        assert not pres.member(x)


# -- presentation validation -----------------------------------------------------


def test_decompositions_validate_as_partitions():
    rng = random.Random(5)
    for g in (GA, HD):
        for _ in range(10):
            D = sampling.random_cylinder(g, rng)
            verdict = validate_fd_presentation(g, decompose_cylinder(g, D))
            assert verdict.status == "holds", str(verdict)


def test_overlapping_presentation_is_rejected():
    # complete coverage, but d-starting points land on both sides
    cover_rest = (PcSchema(1, (VarAtom("f"),), GA.edge_domain("f")),
                  PcSchema(1, (LitAtom(A_W),)))
    pres = FdPresentation((pseudo_cylinder(Block((d(),)), 1),) + cover_rest,
                          (pseudo_cylinder(Block((d(),)), 1),))
    verdict = validate_fd_presentation(GA, pres)
    assert verdict.status == "fails" and "both sides" in verdict.detail
    assert verdict.witness is not None and pc_contains(
        pseudo_cylinder(Block((d(),)), 1), verdict.witness)


def test_uncovered_presentation_is_rejected():
    pres = FdPresentation((pseudo_cylinder(Block((d(),)), 1),), ())
    verdict = validate_fd_presentation(GA, pres)
    assert verdict.status == "fails" and "neither side" in verdict.detail


# -- union / intersection ---------------------------------------------------------


def test_fd_union_and_intersection_revalidate():
    rng = random.Random(9)
    for g in (GA, HD):
        d1 = decompose_cylinder(g, sampling.random_cylinder(g, rng))
        d2 = decompose_cylinder(g, sampling.random_cylinder(g, rng))
        union = fd_union(g, d1, d2)
        inter = fd_intersect(g, d1, d2)
        for x in sample_points(g, FdBounds(depth=2, index_bound=3,
                                           samples=20, seed=3)):
            in1, in2 = d1.member(x), d2.member(x)
            assert union.member(x) == (in1 or in2)
            assert (side_matches(union.negative, x) is not None) == (
                not (in1 or in2))
            assert inter.member(x) == (in1 and in2)
            assert (side_matches(inter.negative, x) is not None) == (
                not (in1 and in2))


def test_schema_intersection_ties_parameters():
    s1 = PcSchema(1, (VarAtom("f"), LitAtom(d())), IndexSet.at_least(1))
    s2 = PcSchema(1, (VarAtom("f"),), IndexSet.at_least(3))
    got = schema_intersect(GA, s1, s2)
    assert len(got) == 1
    assert got[0].param_domain == IndexSet.at_least(3)
    assert got[0].atoms == (VarAtom("f"), LitAtom(d()))


def test_schema_intersection_with_literal_fixes_parameter():
    s1 = PcSchema(1, (VarAtom("f"),), IndexSet.at_least(1))
    s2 = pseudo_cylinder(Block((f(7),)), 1)
    got = schema_intersect(GA, s1, s2)
    assert len(got) == 1 and got[0].atoms == (LitAtom(f(7)),)
    s3 = pseudo_cylinder(Block((d(),)), 1)
    assert schema_intersect(GA, s1, s3) == []


def test_schema_intersection_disjoint_windows_fills_gap():
    s1 = pseudo_cylinder(Block((d(),)), 1)
    s2 = pseudo_cylinder(Block((f(1),)), 3)
    got = schema_intersect(GA, s1, s2, index_bound=2)
    x = PeriodicPoint((d(), d()), (f(1),))
    assert any(pc_contains(s, x) for s in got)
    y = PeriodicPoint((f(1), d()), (f(1),))
    assert not any(pc_contains(s, y) for s in got)


# -- refutation -------------------------------------------------------------------


def c_b_oracle():
    return SetOracle(
        lambda x: length(x) == 0 or x == ALL_D,
        label="preimage of the target tail class")


def test_refute_c_b_at_the_all_d_point():
    result = refute_finitely_defined(GA, c_b_oracle(), ALL_D, 6)
    assert result.status == "refuted"
    assert len(result.rows) == 21  # all windows (k, l) with 1<=k<=l<=6
    for row in result.rows:
        assert not c_b_oracle()(row.witness)


def test_refute_c_a_of_the_zero_counting_shift():
    oracle = SetOracle(lambda x: length(x) == 0 or x == ALL_ZERO,
                       label="zero-tail class")
    result = refute_finitely_defined(GB, oracle, ALL_ZERO, 6)
    assert result.status == "refuted"


def test_full_space_oracle_is_inconclusive():
    oracle = SetOracle(lambda x: True, label="everything")
    result = refute_finitely_defined(GA, oracle, ALL_D, 3)
    assert result.status == "inconclusive"
    assert result.rows == [] and len(result.stuck) == 6


def test_audit_rejects_a_bogus_witness_under_optimize():
    # the audit must not rest on assert statements, which python -O strips
    code = textwrap.dedent("""
        from ultrashift.corpus import build_fixture
        from ultrashift.definable import (
            AuditError, RefutationResult, RefutationRow, audit_refutation)
        fx = build_fixture("a")
        all_d = fx.points["all_d"]
        bogus = RefutationResult(
            "refuted", [RefutationRow((1, 2), all_d, "the target itself")],
            "bogus claim", [])
        try:
            audit_refutation(fx.source, fx.oracles["C_B"], all_d, bogus)
        except AuditError as err:
            print("rejected:", err)
        else:
            print("accepted")
    """)
    src = os.path.dirname(os.path.dirname(ultrashift.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "rejected: witness for (1, 2) is inside"


def test_refutation_requires_membership():
    with pytest.raises(ValueError):
        refute_finitely_defined(GA, SetOracle(lambda x: False), ALL_D, 3)


def test_zero_length_sets_are_finitely_defined_in_contrast():
    # a set of zero-length points has the two-sided presentation
    pres = FdPresentation(
        (PcSchema(1, (LitAtom(A_W), LitAtom(A_W))),),
        tuple(PcSchema(1, (VarAtom(fam),), GA.edge_domain(fam))
              for fam in ("d", "f")),
    )
    verdict = validate_fd_presentation(GA, pres)
    assert verdict.status == "holds"
