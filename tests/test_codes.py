"""Map presentations, evaluation, and the continuity-condition checkers."""

import random

import pytest

from ultrashift.codes import (
    MapError,
    MapPresentation,
    OracleClass,
    PartitionError,
    RuleMap,
    SchemaClass,
    check_commuting,
    check_csc_item_i,
    check_csc_item_ii,
    check_csc_item_iii,
    check_genchl_iia,
    check_genchl_iib,
    check_length_preserving,
    compute_A_x,
    eval_map,
    eval_resolved,
    probe_continuity,
    validate_partition,
)
from ultrashift.corpus import (
    build_fixture,
    d,
    e,
    f,
    n,
)
from ultrashift.definable import LitAtom, PcSchema, VarAtom
from ultrashift import codes, graphs
from ultrashift.intsets import IndexSet, SymbolicSet
from ultrashift.paths import Ultrapath
from ultrashift.points import (
    Cylinder,
    FinitePoint,
    PeriodicPoint,
    coordinate,
    cylinder_contains,
    length,
    prefix,
    shift,
    shift_n,
)
from ultrashift import sampling
from ultrashift.cli import _audit
from ultrashift.verdicts import Verdict
from helpers_maps import escaping_map
from helpers_oracle import CAPS, apply_cap, fresh, outcome, reference_eval

FA = build_fixture("a")
FB = build_fixture("b")
FD = build_fixture("d")
GA, HA = FA.source, FA.target
A_W = FA.points["zero"].tail
B_V = next(c.symbol for c in FA.phi.classes if isinstance(c, OracleClass))
GD, HD = FD.source, FD.target
A_D = FD.points["zero"].tail
P = next(m for m in HD.minimal_infinite_emitters()[0]
         if m.vertices.part("w").max() == -1)
Q = next(m for m in HD.minimal_infinite_emitters()[0]
         if m.vertices.part("w").min() == 1)


def full_space_map(g, h, sym):
    """Everything maps to the constant sequence of ``sym``."""
    schemas = [PcSchema(1, (VarAtom(fam),), g.edge_domain(fam))
               for fam in g.edge_families]
    schemas += [PcSchema(1, (LitAtom(m),))
                for m in g.minimal_infinite_emitters()[0]]
    return MapPresentation(g, h, [SchemaClass(schemas, symbol=sym)],
                           label=f"constant {sym}")


def test_class_bodies_take_schemas_only():
    # a cylinder enters a class as decompose_cylinder(g, D).positive
    D = Cylinder(Ultrapath((d(),), GA.range_of(d())))
    with pytest.raises(MapError) as err:
        SchemaClass([D], symbol=e(1))
    assert "decompose_cylinder(g, D).positive" in str(err.value)


# -- symbol_at and evaluation ---------------------------------------------------


def test_symbol_examples_fixture_a():
    phi = FA.phi
    assert phi.symbol_at(FinitePoint((), A_W)) == B_V
    assert phi.symbol_at(PeriodicPoint((d(), d()), (f(3),))) == e(3)
    assert phi.symbol_at(PeriodicPoint((), (d(),))) == B_V


def test_symbol_examples_fixture_d():
    phi = FD.phi
    assert phi.symbol_at(PeriodicPoint((e(0), e(0)), (e(2),))) == f(-2)
    assert phi.symbol_at(FinitePoint((), A_D)) == Q
    assert phi.symbol_at(PeriodicPoint((), (e(0),))) == P
    assert phi.symbol_at(PeriodicPoint((), (e(5),))) == f(5)


def test_partition_violations_are_reported():
    g, h = GA, HA
    overlapping = MapPresentation(g, h, [
        SchemaClass([PcSchema(1, (LitAtom(d()),))], symbol=e(1)),
        SchemaClass([PcSchema(1, (LitAtom(d()),))], symbol=e(2)),
    ])
    with pytest.raises(PartitionError) as err:
        overlapping.symbol_at(PeriodicPoint((), (d(),)))
    assert len(err.value.matches) == 2
    gappy = MapPresentation(g, h, [
        SchemaClass([PcSchema(1, (LitAtom(d()),))], symbol=e(1)),
    ])
    with pytest.raises(PartitionError):
        gappy.symbol_at(PeriodicPoint((), (f(1),)))


def test_eval_fixture_b_spec_word():
    got = eval_resolved(FB.phi, FB.points["spec_word"])
    assert got == FinitePoint((n(1), n(0), n(2), n(1)),
                              FB.points["zero"].tail)


def test_eval_fixture_d_examples():
    got = eval_resolved(FD.phi, FD.points["spec_word"])
    assert got == PeriodicPoint((f(-2), f(-1)), (f(2),))
    assert eval_resolved(FD.phi, FD.points["zero"]) == FinitePoint((), Q)
    assert eval_resolved(FD.phi, FD.points["all_e0"]) == FinitePoint((), P)


def test_eval_output_is_validated():
    # a rule producing a non-path in the target graph is rejected
    bad = RuleMap(GD, HD, lambda x: f(-5), "broken")
    with pytest.raises(MapError):
        eval_resolved(bad, PeriodicPoint((), (e(1),)))


def test_eval_catches_non_invariant_emitter_class():
    # a tail symbol at the first coordinate must persist along the orbit
    def rule(x):
        from ultrashift.points import coordinate as coord
        return B_V if coord(x, 1) == d() else e(1)

    with pytest.raises(MapError) as err:
        eval_resolved(RuleMap(GA, HA, rule, "non-invariant"),
                      PeriodicPoint((d(),), (f(1),)))
    assert "persist" in str(err.value)


def _first_rule(symbols):
    """A rule map on fixture a's graphs: the tail B at points whose first
    coordinate is in ``symbols``, e[1] elsewhere.  Its emitter class is
    not shift invariant."""
    def rule(x):
        from ultrashift.points import coordinate as coord
        return B_V if coord(x, 1) in symbols else e(1)
    return RuleMap(GA, HA, rule, f"B after {symbols}")


@CAPS
def test_eval_orbit_closure_matches_a_reference_walk(cap, monkeypatch):
    apply_cap(monkeypatch, cap)
    extra = {
        "a": [FinitePoint((), A_W),
             PeriodicPoint((d(), f(2)), (f(3),)),
             # non-primitive cycles, stored primitive
             PeriodicPoint((d(), f(3)), (f(3), f(3))),
             PeriodicPoint((d(),), (f(1), f(2), f(1), f(2))),
             # the emitter symbol of a rule map below appears after the
             # preamble, so the cycle brings other symbols back after it
             PeriodicPoint((), (d(), f(1))),
             PeriodicPoint((d(),), (f(2), f(1))),
             PeriodicPoint((d(), d()), (f(1),)),
             FinitePoint((d(), f(1)), A_W)],
        "b": [PeriodicPoint((n(0), n(0)), (n(1), n(0), n(1), n(0)))],
        "d": [FinitePoint((), A_D),
             PeriodicPoint((e(3),), (e(0), e(1), e(0), e(1)))],
    }
    rule_maps = {"a": [_first_rule({f(1)}), _first_rule({d()}),
                       _first_rule({f(1), A_W})]}
    compared = refused = 0
    for fx in (FA, FB, build_fixture("c"), FD):
        points = fx.sample_pool(30, 5) + list(fx.points.values()) + \
            extra.get(fx.name, [])
        for phi in list(fx.maps.values()) + rule_maps.get(fx.name, []):
            if phi.source is not fx.source:
                continue
            phi = fresh(phi)
            for x in points:
                want = reference_eval(phi, x)
                # a cold table; then one holding the images of shifts,
                # onto which the shift and then x splice; then one holding x
                assert outcome(fresh(phi), x) == want, (phi, x)
                for y in (shift_n(x, 3), shift(x)):
                    assert outcome(phi, y) == reference_eval(phi, y), (phi, y)
                assert outcome(phi, x) == want, (phi, x)
                assert outcome(phi, x) == want, (phi, x)
                compared += 1
                refused += want == "persist"
    assert compared > 200 and refused > 10


def test_finite_image_bound_when_tail_maps_to_length_zero():
    rng = random.Random(17)
    for fx in (FB, FD):
        for _ in range(20):
            x = sampling.random_finite_point(fx.source, rng)
            if x is None:
                continue
            tail_img = eval_resolved(fx.phi, FinitePoint((), x.tail))
            if length(tail_img) != 0:
                continue
            assert length(eval_resolved(fx.phi, x)) <= length(x)


# -- commutation, shifts, periods -------------------------------------------------


def test_commuting_holds_for_fixture_maps():
    for fx in (FA, FB, FD):
        verdict = check_commuting(fx.phi, fx.sample_pool(30))
        assert verdict.status == "holds", str(verdict)


def test_a_presented_map_is_evaluated_once_per_sample(monkeypatch):
    # Φ(σx) = σΦ(x) holds by construction, so only x's image is asked for
    asked = []
    real = codes.eval_map
    monkeypatch.setattr(codes, "eval_map",
                        lambda phi, x: (asked.append(x), real(phi, x))[1])
    for fx in (FA, FB, FD):
        pool = fx.sample_pool(20)
        for phi in (fx.phi, RuleMap(fx.source, fx.target, fx.phi.symbol_at)):
            asked.clear()
            verdict = check_commuting(phi, pool)
            assert asked == pool
            assert verdict.status == "holds" and verdict.exact
            assert verdict.bounds == {"samples": len(pool)}
            assert "Φ(σx) = σΦ(x)" in verdict.detail


def test_a_sample_the_map_refuses_escapes_the_commuting_check():
    def rule(x):
        raise MapError("no symbol")
    with pytest.raises(MapError, match="no symbol"):
        check_commuting(RuleMap(FA.source, FA.target, rule), FA.sample_pool(3))


def test_exactly_periodic_points_keep_their_period():
    # a shift commuting map sends a point of period p to one of period p
    for phi, x, p in ((FA.phi, PeriodicPoint((), (d(),)), 1),
                      (FA.phi, FinitePoint((), A_W), 1),
                      (FD.phi, PeriodicPoint((), (e(2),)), 1),
                      (FD.phi, PeriodicPoint((), (e(1), e(0))), 2)):
        y = eval_resolved(phi, x)
        assert shift_n(y, p) == y, (x, y)
    assert eval_resolved(FD.phi, PeriodicPoint((), (e(2),))) == \
        PeriodicPoint((), (f(2),))


def test_zero_length_points_map_to_constant_sequences():
    for fx in (FA, FB, FD):
        for x in (p for p in fx.sample_pool(10) if length(p) == 0):
            img = eval_map(fx.phi, x)
            assert prefix(img, 5) == (coordinate(img, 1),) * 5


# -- openness of edge classes (condition i) ---------------------------------------


def test_item_i_accepts_anchored_edge_schemas():
    assert check_csc_item_i(FA.phi).status == "holds"


def test_item_i_rejects_position_two_anchor():
    phi = MapPresentation(GA, HA, [
        SchemaClass([PcSchema(2, (LitAtom(d()),))], symbol=e(1)),
    ])
    verdict = check_csc_item_i(phi)
    assert verdict.status == "fails"
    assert verdict.witness.anchor == 2


def test_item_i_accepts_empty_and_emitter_classes():
    phi = MapPresentation(GA, HA, [
        SchemaClass([], symbol=e(1)),
        SchemaClass([PcSchema(2, (LitAtom(d()),))], symbol=B_V),
    ])
    assert check_csc_item_i(phi).status == "holds"


def test_item_i_certifies_sibling_covered_emitter_schema():
    phi_inv = FD.maps["phi_inv"]
    assert check_csc_item_i(phi_inv).status == "holds"


def test_item_i_reads_sibling_coverage_per_parameter_value():
    # at (f[j] A ...) only the siblings' instances at the same j follow the
    # head, f[j] f[j] and f[j] d: every cylinder [f[3]] minus a finite set
    # holds points f[3] f[5] ... outside the class
    ge1 = IndexSet.at_least(1)
    phi = MapPresentation(GA, HA, [SchemaClass([
        PcSchema(1, (VarAtom("f"), LitAtom(A_W)), ge1),
        PcSchema(1, (VarAtom("f"), VarAtom("f")), ge1),
        PcSchema(1, (VarAtom("f"), LitAtom(d())), ge1)], symbol=e(1))])
    verdict = check_csc_item_i(phi)
    assert verdict.status == "fails"
    assert "uncovered" in verdict.detail
    # without the parameter in the head, a sibling's free index does
    # range over every value: d f[j] and d d cover all of eps(A)
    phi = MapPresentation(GA, HA, [SchemaClass([
        PcSchema(1, (LitAtom(d()), LitAtom(A_W))),
        PcSchema(1, (LitAtom(d()), VarAtom("f")), ge1),
        PcSchema(1, (LitAtom(d()), LitAtom(d())))], symbol=e(1))])
    assert check_csc_item_i(phi).status == "holds"


def test_item_i_matches_siblings_whose_head_names_the_instance():
    # f[j] A with j in {3} is the one point (f[3] A ...); its siblings
    # f[3] f[k] and f[3] d cover eps(A), although their heads are spelled
    # apart from the pattern's
    ge1 = IndexSet.at_least(1)

    def phi(values):
        return MapPresentation(GA, HA, [SchemaClass([
            PcSchema(1, (VarAtom("f"), LitAtom(A_W)), values),
            PcSchema(1, (LitAtom(f(3)), VarAtom("f")), ge1),
            PcSchema(1, (LitAtom(f(3)), LitAtom(d())))], symbol=e(1))])

    assert check_csc_item_i(phi(IndexSet.of(3))).status == "holds"
    # at j = 5 no sibling follows f[5], so every cylinder at (f[5] A ...)
    # holds points outside the class
    verdict = check_csc_item_i(phi(IndexSet.of(3, 5)))
    assert verdict.status == "fails"
    assert "uncovered" in verdict.detail


def test_item_i_rejects_bare_emitter_schema_in_edge_class():
    phi = MapPresentation(HD, GD, [
        SchemaClass([PcSchema(1, (LitAtom(P),))], symbol=e(0)),
    ])
    verdict = check_csc_item_i(phi)
    assert verdict.status == "fails"
    assert "uncovered" in verdict.detail


def test_item_i_unknown_for_oracle_edge_class():
    phi = MapPresentation(GA, HA, [
        OracleClass(e(1), lambda x: True),
    ])
    assert check_csc_item_i(phi).status == "unknown"


# -- excluded-set conditions (ii, iia, iib) ----------------------------------------


def test_item_ii_with_empty_target_exclusions():
    v = check_csc_item_ii(FA.phi, FinitePoint((), A_W), SymbolicSet.empty())
    assert v.status == "holds"
    assert v.witness.is_empty()


def test_item_ii_with_excluded_target_edge():
    # excluding e[1] in the target forces excluding d and f[1] at the source;
    # the containment then genuinely holds, by direct cylinder evaluation
    F = SymbolicSet.singleton("e", 1)
    v = check_csc_item_ii(FA.phi, FinitePoint((), A_W), F)
    assert v.status == "holds"
    f_prime = v.witness
    assert f_prime == SymbolicSet.of(("d", IndexSet.of(0)),
                                     ("f", IndexSet.of(1)))
    target_cyl = Cylinder(Ultrapath((), B_V.vertices), F)
    source_cyl = Cylinder(Ultrapath((), A_W.vertices), f_prime)
    rng = random.Random(3)
    pool = FA.sample_pool(60, seed=8)
    pool += [PeriodicPoint((d(),), (f(1),)), PeriodicPoint((), (f(1),))]
    hits = 0
    for x in pool:
        if not cylinder_contains(GA, source_cyl, x):
            continue
        hits += 1
        img = eval_resolved(FA.phi, x)
        assert cylinder_contains(HA, target_cyl, img), f"{x} escapes"
    assert hits >= 5


def test_item_ii_constant_map_needs_no_exclusions():
    phi = full_space_map(GA, HA, B_V)
    v = check_csc_item_ii(phi, FinitePoint((), A_W),
                          SymbolicSet.singleton("e", 3))
    assert v.status == "holds" and v.witness.is_empty()


def test_item_ii_at_a_positive_length_finite_point():
    fx = build_fixture("c")
    phi = fx.maps["phi_finite"]
    a_tail = fx.points["zero"].tail
    x_bar = FinitePoint((d(),), a_tail)
    img = eval_resolved(phi, x_bar)
    assert img.path == (e(1),)
    F = SymbolicSet.singleton("e", 3)
    v = check_csc_item_ii(phi, x_bar, F)
    assert v.status == "holds"
    # f[2] is the only extension mapping onto the excluded e[3]
    assert v.witness == SymbolicSet.singleton("f", 2)
    source_cyl = Cylinder(Ultrapath((), a_tail.vertices), v.witness)
    target_cyl = Cylinder(Ultrapath((), img.tail.vertices), F)
    rng = random.Random(1)
    for _ in range(30):
        x = sampling.random_point(phi.source, rng)
        if cylinder_contains(phi.source, source_cyl, x):
            assert cylinder_contains(phi.target, target_cyl,
                                     eval_resolved(phi, x))


def test_genchl_iia_on_fixture_a():
    v = check_genchl_iia(FA.phi, FinitePoint((), A_W))
    assert v.status == "holds" and v.witness.is_empty()


def test_genchl_iia_fails_on_infinitely_many_violators():
    # extensions by f[j], j >= 2 map to an edge whose source is outside the
    # image tail, and no finite excluded set can remove them all
    phi = escaping_map()
    v = check_genchl_iia(phi, FinitePoint((), A_W))
    assert v.status == "fails"
    assert v.witness["prefix"] == ()
    assert v.witness["escaping-family"] == SymbolicSet.of(
        ("f", IndexSet.at_least(2)))
    assert [sym for _, sym in v.witness["examples"]] == [f(1)] * 3
    assert _audit(phi, v).status == "holds"


def test_escape_audit_refuses_a_witness_it_cannot_reproduce():
    phi = escaping_map()
    v = check_genchl_iia(phi, FinitePoint((), A_W))
    x, sym = v.witness["examples"][0]
    for changed in ({"examples": [(x, f(-1))]},
                    {"examples": [(x, sym), (x, sym)]},
                    {"examples": [(FinitePoint((), A_W), sym)]},
                    {"examples": []},
                    {"prefix": (f(2),)},
                    {"escaping-family": SymbolicSet.singleton("f", 3)}):
        forged = Verdict(v.check, "fails", v.detail, {**v.witness, **changed})
        assert _audit(phi, forged).status == "fails", changed


def test_genchl_iib_on_fixture_a():
    v = check_genchl_iib(FA.phi, FinitePoint((), A_W))
    assert v.status == "holds"
    # six sampled extensions bound the verdict, and every one is echoed
    assert v.bounds["extensions"] == 6 and v.bounds["tries"] == 24
    assert v.detail == \
        f"finite extension sets at {v.bounds['sampled']} sampled extensions"


def test_compute_A_x_single_schema_class():
    # e[1] is reachable only through the single pattern pinning f[5] first
    fam_dom = IndexSet.at_least(2).difference(IndexSet.of(5))
    phi = MapPresentation(GA, HA, [
        SchemaClass([PcSchema(1, (LitAtom(f(5)),))], symbol=e(1)),
        SchemaClass([PcSchema(1, (VarAtom("f"),), fam_dom)],
                    family="e", index_domain=fam_dom),
        SchemaClass([PcSchema(1, (LitAtom(d()),)),
                     PcSchema(1, (LitAtom(f(1)),))], symbol=e(2)),
        SchemaClass([PcSchema(1, (LitAtom(A_W),))], symbol=B_V),
    ])
    a_x, finite, exact = compute_A_x(phi, FinitePoint((), A_W),
                                     PeriodicPoint((), (f(5),)))
    assert a_x == SymbolicSet.singleton("f", 5) and finite and exact


# -- orbit condition (iii) ----------------------------------------------------------


def test_item_iii_constant_map_holds_with_empty_exclusions():
    phi = full_space_map(GA, GA, d())
    v = check_csc_item_iii(phi, A_W, M=4)
    assert v.status == "holds" and v.witness.is_empty()


def test_item_iii_not_applicable_when_image_has_length_zero():
    v = check_csc_item_iii(FD.phi, A_D, M=3)
    assert v.status == "not-applicable"


def test_item_iii_fails_when_the_orbit_escapes():
    # the class of e[1] misses f[1]-starting points, which are reachable
    # after one shift no matter which finite set is excluded
    phi = MapPresentation(GA, HA, [
        SchemaClass([PcSchema(1, (LitAtom(d()),)),
                     PcSchema(1, (VarAtom("f"),), IndexSet.at_least(2)),
                     PcSchema(1, (LitAtom(A_W),))], symbol=e(1)),
        SchemaClass([PcSchema(1, (LitAtom(f(1)),))], symbol=e(2)),
    ], label="one-step escape")
    v = check_csc_item_iii(phi, A_W, M=1)
    assert v.status == "fails"
    assert v.witness["step"] == 1


# -- length preservation ---------------------------------------------------------


def test_length_preserving_identity_style_map():
    fx = build_fixture("c")
    v = check_length_preserving(fx.maps["phi_finite"], fx.sample_pool(30))
    assert v.status == "holds"


def test_length_preserving_holds_for_the_identity_map():
    from helpers_random import identity_map

    phi = identity_map(GA)
    v = check_length_preserving(phi, FA.sample_pool(30))
    assert v.status == "holds"
    assert check_csc_item_i(phi).status == "holds"


def test_length_preserving_fails_fixture_b_with_witness():
    v = check_length_preserving(FB.phi, FB.sample_pool(30))
    assert v.status == "fails"
    assert v.witness == FB.points["all_zero"]


def test_length_preserving_fails_fixture_d_with_witness():
    v = check_length_preserving(FD.phi, FD.sample_pool(30))
    assert v.status == "fails"
    assert v.witness == FD.points["all_e0"]


def test_an_incomplete_emitter_inventory_leaves_a_holding_verdict_unknown(
        monkeypatch):
    # a closure of one set saturates on no fixture, so the inventory of
    # minimal emitters is incomplete; a failure keeps its witness
    monkeypatch.setattr(graphs, "CLOSURE_CAP", 1)
    fa, fb, fc = (build_fixture(name) for name in "abc")
    assert not any(fx.source.minimal_infinite_emitters()[1]
                   for fx in (fa, fb, fc))
    incomplete = "; the minimal emitter inventory is incomplete"
    v = check_length_preserving(fc.maps["phi_finite"], fc.sample_pool(30))
    assert (v.status, v.detail) == ("unknown", "emitter classes carry "
                                    "exactly the zero-length points; "
                                    "extension conditions hold" + incomplete)
    v = check_csc_item_iii(full_space_map(fa.source, fa.source, d()),
                           fa.points["zero"].tail, M=4)
    assert v.status == "unknown" and v.detail.endswith(incomplete)
    assert not v.exact and v.witness.is_empty()
    v = check_length_preserving(fb.phi, fb.sample_pool(30))
    assert v.status == "fails" and v.witness == fb.points["all_zero"]
    v = check_csc_item_iii(fc.maps["phi_infinite"], fc.points["zero"].tail)
    assert v.status == "fails" and v.witness["point"] is not None


# -- probing ----------------------------------------------------------------------


def test_probe_fails_at_all_d_with_stuck_images():
    v = probe_continuity(FA.phi, FA.points["all_d"])
    assert v.status == "fails"
    images = v.witness["images"]
    assert all(img.preamble == () or img.preamble[0] == e(1) or
               img.cycle[0] == e(1) for img in images
               if isinstance(img, PeriodicPoint))
    assert v.witness["target"] == FinitePoint((), B_V)


def test_probe_holds_at_all_zero_for_fixture_b():
    v = probe_continuity(FB.phi, FB.points["all_zero"])
    assert v.status == "holds"


def test_probe_holds_at_random_points_of_fixture_b():
    rng = random.Random(23)
    for _ in range(20):
        x = sampling.random_point(FB.source, rng)
        v = probe_continuity(FB.phi, x, rng=rng)
        assert v.status == "holds", f"{x}: {v}"


def test_probe_constant_sequence_strategy_trivially_holds():
    phi = full_space_map(GA, HA, B_V)
    v = probe_continuity(phi, FinitePoint((), A_W))
    assert v.status == "holds"


# -- partition validation ----------------------------------------------------------


def test_validate_partition_flags_non_invariant_emitter_class():
    phi = MapPresentation(GA, HA, [
        # d-starting points map to the tail symbol: shifting (d f1 ...)
        # leaves the class, so the class is not shift invariant
        SchemaClass([PcSchema(1, (LitAtom(d()),)),
                     PcSchema(1, (LitAtom(A_W),))], symbol=B_V),
        SchemaClass([PcSchema(1, (VarAtom("f"),), IndexSet.at_least(1))],
                    family="e", index_domain=IndexSet.at_least(1)),
    ])
    verdict = validate_partition(phi, [PeriodicPoint((d(),), (f(1),))])
    assert verdict.status == "fails"
    assert "shift invariant" in verdict.detail
