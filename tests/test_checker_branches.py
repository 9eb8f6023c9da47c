"""Checker branches the fixture verdicts do not reach: rule-presented maps,
sampled oracle classes, item iii's coverage through family and oracle
classes, a failing finite-extension condition (iib), and the rule twins
of maps built to fail an escape condition."""

import pytest

from helpers_maps import everything_to_e1, escaping_map, rule_twin
from ultrashift.cli import _audit
from ultrashift.codes import (
    MapPresentation,
    OracleClass,
    RuleMap,
    SchemaClass,
    check_csc_item_ii,
    check_csc_item_iii,
    check_genchl_iia,
    check_genchl_iib,
    compute_A_x,
    first_edges_into_class,
)
from ultrashift.corpus import build_fixture, d, e, f
from ultrashift.definable import LitAtom, PcSchema, VarAtom
from ultrashift.graphs import MinimalEmitter
from ultrashift.intsets import IndexSet, SymbolicSet
from ultrashift.points import FinitePoint, PeriodicPoint, coordinate, shift_n

FA = build_fixture("a")
GA, HA = FA.source, FA.target
A_W = FA.points["zero"].tail
ORACLE_B = next(c for c in FA.phi.classes if isinstance(c, OracleClass))
B_V = ORACLE_B.symbol
ZERO = FinitePoint((), A_W)


def starts_with(edge):
    return lambda x: coordinate(x, 1) == edge


def relabel(x):
    """d and f[1] go to e[1], f[j] to e[j], the tail to B."""
    c = coordinate(x, 1)
    if isinstance(c, MinimalEmitter):
        return B_V
    return e(1) if c == d() else e(c.index)


RELABEL = RuleMap(GA, HA, relabel, "relabel by rule")


def test_rule_map_with_no_sampled_escape_holds_on_bounded_evidence():
    v = check_genchl_iia(RELABEL, ZERO)
    assert v.status == "holds"
    assert v.detail == "no sampled extension escapes; bounded evidence only"
    assert v.witness.is_empty() and not v.exact


def test_rule_map_with_sampled_escapes_is_unknown():
    # excluding e[1] in the target: d and f[1] lead there
    v = check_csc_item_ii(RELABEL, ZERO, SymbolicSet.singleton("e", 1))
    assert v.status == "unknown"
    assert v.detail.startswith("sampled escapes found")
    assert v.witness == SymbolicSet.of(("d", IndexSet.of(0)),
                                       ("f", IndexSet.of(1)))


def test_rule_map_extension_set_is_sampled_and_inexact():
    a_x, finite, exact = compute_A_x(RELABEL, ZERO, PeriodicPoint((), (f(5),)))
    assert a_x == SymbolicSet.singleton("f", 5)
    assert finite and not exact


def test_oracle_class_first_edges_are_sampled():
    # only a d-run ending in the tail lies in the target tail class
    got = first_edges_into_class(FA.phi, ORACLE_B, ())
    assert got.kind == "under" and not got.exact
    assert got.edges == SymbolicSet.singleton("d", 0)


def test_iia_escape_set_through_an_oracle_class_is_mixed():
    # into H_d the zero point maps to the tail Q = w[>=1], and the oracle
    # class of f[-1], which Q does not emit, is read through sampled edges
    hd = build_fixture("d").target
    q = next(m for m in hd.minimal_infinite_emitters()[0]
             if m.vertices.part("w").min() == 1)
    phi = MapPresentation(GA, hd, [
        OracleClass(f(-1), starts_with(d())),
        SchemaClass([PcSchema(1, (VarAtom("f"),), IndexSet.at_least(1))],
                    family="f", index_domain=IndexSet.at_least(1)),
        SchemaClass([PcSchema(1, (LitAtom(A_W),))], symbol=q),
    ], label="d by oracle into H_d")
    v = check_genchl_iia(phi, ZERO)
    assert v.status == "holds" and not v.exact
    assert v.detail == ("finite escape set F' = {d[0]}; oracle classes "
                        "sampled; bounded evidence only")
    assert v.witness == SymbolicSet.singleton("d", 0)


def test_item_ii_through_an_oracle_class_holds_on_bounded_evidence():
    phi = MapPresentation(GA, HA, [
        OracleClass(e(1), starts_with(d())),
        SchemaClass([PcSchema(1, (VarAtom("f"),), IndexSet.at_least(1))],
                    family="e", index_domain=IndexSet.at_least(1)),
        SchemaClass([PcSchema(1, (LitAtom(A_W),))], symbol=B_V),
    ], label="d by oracle")
    v = check_csc_item_ii(phi, ZERO, SymbolicSet.singleton("e", 1))
    assert v.status == "holds" and not v.exact
    assert v.detail.endswith("oracle classes sampled; bounded evidence only")
    assert v.witness == SymbolicSet.of(("d", IndexSet.of(0)),
                                       ("f", IndexSet.of(1)))


def test_item_iii_coverage_through_a_family_class_takes_its_parameter():
    # the family class gives e[1] at f[1] only: its parameter 2 goes to
    # e[2], so f[2] is a gap that every shift of the cylinder reaches again
    phi = MapPresentation(GA, HA, [
        SchemaClass([PcSchema(1, (LitAtom(A_W),)),
                     PcSchema(1, (LitAtom(d()),)),
                     PcSchema(1, (VarAtom("f"),), IndexSet.at_least(3))],
                    symbol=e(1)),
        SchemaClass([PcSchema(1, (VarAtom("f"),), IndexSet.between(1, 2))],
                    family="e", index_domain=IndexSet.between(1, 2)),
    ], label="f[2] to e[2]")
    v = check_csc_item_iii(phi, A_W, M=2)
    assert v.status == "fails"
    w = v.witness
    assert w["step"] == 1 and w["symbol"] == e(2)
    assert coordinate(shift_n(w["point"], 1), 1) == f(2)


def test_item_iii_coverage_skips_an_oracle_class():
    # f[1] reaches e[1] through an oracle class, which gives no sure cover
    phi = MapPresentation(GA, HA, [
        SchemaClass([PcSchema(1, (LitAtom(A_W),)),
                     PcSchema(1, (LitAtom(d()),)),
                     PcSchema(1, (VarAtom("f"),), IndexSet.at_least(2))],
                    symbol=e(1)),
        OracleClass(e(1), starts_with(f(1))),
    ], label="f[1] by oracle")
    v = check_csc_item_iii(phi, A_W, M=2)
    assert v.status == "unknown"
    assert v.detail == "coverage gap at step 1 unconfirmed"
    assert v.witness == SymbolicSet.singleton("f", 1)


def test_genchl_iib_fails_when_an_edge_symbol_has_infinitely_many_sources():
    phi = everything_to_e1()
    v = check_genchl_iib(phi, ZERO)
    assert v.status == "fails"
    assert v.detail == "A_x infinite for extension d[0] (symbol e[1])"
    assert v.bounds == {"extensions": 6, "sampled": 1, "tries": 24}
    w = v.witness
    assert coordinate(w["extension"], 1) == d()
    assert w["escaping-family"] == SymbolicSet.of(("d", IndexSet.of(0)),
                                                  ("f", IndexSet.at_least(1)))
    assert [sym for _, sym in w["examples"]] == [e(1)] * 3
    assert _audit(phi, v).status == "holds"


def test_rule_map_extension_sets_leave_iib_unknown():
    v = check_genchl_iib(rule_twin(everything_to_e1()), ZERO)
    assert v.status == "unknown"
    assert v.detail.startswith(
        "A_x undecided for extension d[0] (symbol e[1]): sampled escapes")
    assert v.witness.contains("d", 0) and v.witness.contains("f", 1)


ESCAPE_CHECKS = [
    lambda phi: check_csc_item_ii(phi, ZERO, SymbolicSet.empty()),
    lambda phi: check_csc_item_ii(phi, ZERO, SymbolicSet.singleton("e", 1)),
    lambda phi: check_genchl_iia(phi, ZERO),
    lambda phi: check_genchl_iib(phi, ZERO),
]


@pytest.mark.parametrize("build", [everything_to_e1, escaping_map])
def test_a_rule_twin_never_holds_where_its_schema_map_fails(build):
    # the twin reads only concrete first symbols, so it may not decide,
    # but it must not hold where the classes prove an infinite escape
    phi = build()
    twin = rule_twin(phi)
    failed = []
    for check in ESCAPE_CHECKS:
        v = check(phi)
        if v.status == "fails":
            failed.append(v.check)
            assert _audit(phi, v).status == "holds", v.check
            assert check(twin).status != "holds", v.check
    assert failed
