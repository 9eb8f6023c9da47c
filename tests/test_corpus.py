"""The built-in fixtures reproduce every expected verdict."""

import gc
import weakref

import pytest

from ultrashift.corpus import (_named_emitters, _sole_emitter, build_fixture,
                               graph_a_source, graph_d_target, registry,
                               run_fixture)
from ultrashift.definable import SetOracle
from ultrashift.graphs import GraphError
from ultrashift.intsets import IndexSet, SymbolicSet
from ultrashift.points import RepeatFamily


@pytest.mark.parametrize("name", ["a", "b", "c", "d"])
def test_fixture_expectations_all_match(name):
    verdicts = run_fixture(name)
    assert verdicts
    bad = [v for v in verdicts if v.status != "holds"]
    assert not bad, "; ".join(f"{v.check}: {v.detail}" for v in bad)


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        build_fixture("z")


def test_fixture_graphs_reuse_named_emitters():
    fx = build_fixture("d")
    tails = {m.display() for m, in zip(
        fx.target.minimal_infinite_emitters()[0])}
    assert len(tails) == 2


def test_fixture_emitter_lookups_name_the_graph():
    # both checks raise, so python -O keeps them
    with pytest.raises(GraphError, match="H_d has 2 minimal"):
        _sole_emitter(graph_d_target(), "A")
    with pytest.raises(GraphError, match="G_a has no minimal .* for Q"):
        _named_emitters(graph_a_source(), {
            "Q": SymbolicSet.of(("v", IndexSet.of(7)))})


def test_registry_contents():
    reg = registry()
    assert isinstance(reg["a.C_B"], SetOracle)
    assert isinstance(reg["b.C_A"], SetOracle)
    assert isinstance(reg["d.C_P"], SetOracle)
    assert isinstance(reg["a.dn_f1"], RepeatFamily)
    assert isinstance(reg["d.e0n_e2"], RepeatFamily)


def test_fixture_notes_are_set():
    for name in "abcd":
        assert build_fixture(name).notes


@pytest.mark.parametrize("name", ["a", "b", "c", "d"])
def test_fixture_graphs_die_without_the_cycle_collector(name):
    # expectations must not close over their fixture: a cycle would keep
    # the fixture and its graphs alive until a full collection
    gc.disable()
    try:
        fx = build_fixture(name)
        source, target = weakref.ref(fx.source), weakref.ref(fx.target)
        del fx
        assert source() is None and target() is None
    finally:
        gc.enable()
