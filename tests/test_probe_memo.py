"""The tables a map owns change no answer.  Every evaluation reads the
map's one table: a map with a window reads first image symbols by window,
a map without one stores whole images and splices a stored image of a
shift onto the symbols before it.  Each equals the reference walk of
``test_codes._reference_eval``, which asks ``symbol_at`` once a step and
reads no table, whether the table is cold, warm, or emptied every third
answer.  Also here: convergence read from each term's agreement depth
equals the definition read coordinate by coordinate."""

import dataclasses
import random

import pytest

from helpers_random import identity_map, mirror_map, random_family_graph
from test_acceptance import _window_map
from test_codes import CAPS, _asking, _cap, _fresh, _outcome, _reference_eval
from ultrashift import sampling
from ultrashift.codes import (
    MapError,
    MapPresentation,
    ProbeBounds,
    RuleMap,
    SchemaClass,
    eval_map,
    probe_continuity,
)
from ultrashift.corpus import build_fixture, d, f, n, registry
from ultrashift.definable import LitAtom, PcSchema, VarAtom
from ultrashift.intsets import AffineIndexMap
from ultrashift.points import (
    ConvergenceBounds,
    FinitePoint,
    PeriodicPoint,
    RepeatFamily,
    check_convergence,
    coordinate,
    length,
    prefix,
    shift,
    shift_n,
)

FIXTURES = [build_fixture(name) for name in "abcd"]


def _maps_on_their_source(fx):
    return [_fresh(phi) for phi in fx.maps.values()
            if phi.source is fx.source]


@CAPS
def test_spliced_evaluation_equals_the_reference_on_fixture_pools(
        cap, monkeypatch):
    _cap(monkeypatch, cap)
    compared = 0
    for fx in FIXTURES:
        pool = fx.sample_pool(30, seed=5) + list(fx.points.values())
        for phi in _maps_on_their_source(fx):
            for x in pool:
                # the shifts first, so that x splices onto them; a second
                # pass reads what the first stored
                for k in (3, 1, 0, 0):
                    y = shift_n(x, k)
                    assert _outcome(phi, y) == _reference_eval(phi, y), y
                    compared += 1
    assert compared > 500


def test_a_stored_shift_is_spliced_after_one_symbol():
    fx = FIXTURES[0]
    x = PeriodicPoint((d(), d(), f(2)), (f(3), f(1)))
    phi = _fresh(fx.phi)
    assert phi.window is None
    eval_map(phi, shift(x))
    asked = _asking(phi)
    want = _reference_eval(fx.phi, x)
    assert _outcome(phi, x) == want
    assert asked == [x]
    assert _outcome(phi, x) == want
    assert asked == [x]  # x itself is now stored


REPEATS = [
    RepeatFamily((d(),), PeriodicPoint((), (f(1),))),
    RepeatFamily((d(), f(2)), PeriodicPoint((f(3),), (d(),))),
    # blocks equal to the tail's cycle, as it is and rotated
    RepeatFamily((f(1), f(2)), PeriodicPoint((), (f(1), f(2)))),
    RepeatFamily((f(2), f(1)), PeriodicPoint((d(),), (f(1), f(2)))),
    RepeatFamily((d(),), PeriodicPoint((), (d(),))),
    RepeatFamily((d(), f(4)), FinitePoint((d(),), FIXTURES[0].points[
        "zero"].tail)),
]


@CAPS
@pytest.mark.parametrize("seq", REPEATS, ids=str)
def test_spliced_evaluation_equals_the_reference_on_repeat_terms(
        seq, cap, monkeypatch):
    _cap(monkeypatch, cap)
    for phi in _maps_on_their_source(FIXTURES[0]):
        for _ in range(2):  # a cold table, then a warm one
            for k in range(1, 10):  # growing terms, as a probe reads them
                x = seq.at(k)
                assert _outcome(phi, x) == _reference_eval(phi, x), x


def test_repeat_terms_of_the_b_loop_equal_the_reference():
    fx = FIXTURES[1]
    seq = RepeatFamily((n(0), n(1)), PeriodicPoint((n(2),), (n(1), n(0))))
    phi = _fresh(fx.phi)
    for k in range(1, 10):
        assert _outcome(phi, seq.at(k)) == _reference_eval(phi, seq.at(k))


def test_equal_finite_points_with_differently_named_tails():
    # a rule that hands the tail back: the image's tail keeps the input's
    # name, so a stored image must not serve an equal point named apart
    fx = FIXTURES[0]
    g = fx.source
    named = fx.points["zero"].tail
    plain = dataclasses.replace(named, name=None)
    assert named == plain and str(named) != str(plain)
    identity = RuleMap(g, g, lambda x: coordinate(x, 1), "identity rule")
    for phi in (identity, _fresh(fx.phi)):
        for path in ((), (d(),), (f(2), d()), (d(), d(), f(5))):
            for tail in (named, plain, named):
                for y in (FinitePoint(path, tail),
                          FinitePoint((d(),) + path, tail)):
                    assert _outcome(phi, y) == _reference_eval(phi, y), y


def test_failed_images_are_not_stored():
    fx = FIXTURES[3]
    bad = RuleMap(fx.source, fx.target, lambda x: f(-5), "broken")
    x = PeriodicPoint((), (fx.points["all_e0"].cycle[0],))
    for _ in range(2):
        with pytest.raises(MapError):
            eval_map(bad, x)
    assert bad.table == {}


# -- the window walk ------------------------------------------------------------


def _index_shift_map(g):
    """Sends the edge f[k] to f[k+1] of the source graph itself: a window-1
    map whose images are often not points of its target.  An edge whose
    successor index leaves the family's domain matches no class."""
    down = AffineIndexMap(1, -1)
    classes = [SchemaClass([PcSchema(1, (VarAtom(name),), ef.domain)],
                           family=name, index_map=AffineIndexMap(1, 1),
                           index_domain=ef.domain.intersect(
                               down.image(ef.domain)))
               for name, ef in g.edge_families.items()]
    classes += [SchemaClass([PcSchema(1, (LitAtom(m),))], symbol=m)
                for m in g.minimal_infinite_emitters()[0]]
    return MapPresentation(g, g, classes, f"index shift on {g.name}")


def _random_window_maps(seed: int, graphs: int):
    """(map, pool) pairs over seeded family graphs, with windows 1 to 3."""
    rng = random.Random(seed)
    for tag in range(graphs):
        g = random_family_graph(rng, tag)
        mirror = mirror_map(g)
        pool = sampling.point_pool(g, random.Random(tag), 12)
        for phi in [mirror, identity_map(g), _index_shift_map(g)] + \
                [_window_map(g, mirror.target, w) for w in (1, 2, 3)]:
            yield phi, pool


@CAPS
def test_window_walk_equals_the_reference(cap, monkeypatch):
    _cap(monkeypatch, cap)
    compared = refused = 0
    cases = list(_random_window_maps(41, 6))
    for fx in FIXTURES:
        for phi in fx.maps.values():
            if phi.window is not None:
                pool = sampling.point_pool(phi.source, random.Random(2), 30)
                if phi.source is fx.source:
                    pool += list(fx.points.values())
                cases.append((_fresh(phi), pool))
    windows = {phi.window for phi, _ in cases}
    assert {1, 2, 3} <= windows
    for phi, pool in cases:
        for x in pool:
            # shifts first, as the orbits of a probe's terms overlap; x
            # twice, the second time from a warm table
            for k in (2, 1, 0, 0):
                y = shift_n(x, k)
                got = _outcome(phi, y)
                assert got == _reference_eval(phi, y), (phi, y)
                compared += 1
                refused += got == "target"
    assert compared > 2000
    assert refused > 0  # images failing target validation are refused


def test_a_probe_asks_for_each_window_once():
    bounds = ProbeBounds(n_max=8, conv=ConvergenceBounds(m_max=4, n_max=12))
    probes = 0
    maps = [(phi, pool) for phi, pool in _random_window_maps(43, 4)] + \
        [(fx.maps[k], list(fx.points.values())) for fx in FIXTURES[2:3]
         for k in ("phi_finite", "phi_infinite")]
    for phi, pool in maps:
        for x in pool[:6]:
            # a cold table, so the probe is asked for every window it reads
            fresh = _fresh(phi)
            asked = _asking(fresh)
            try:
                probe_continuity(fresh, x, bounds)
            except MapError:
                pass  # the index shift map refuses some images
            keys = [prefix(y, phi.window) for y in asked]
            assert len(keys) == len(set(keys)), (phi, x)
            probes += len(keys) > 1
    assert probes > 20


# -- agreement depths -----------------------------------------------------------


def _definition(seq, target, bounds):
    """check_convergence at an infinite target as (status, detail, witness,
    exact), with "term n agrees to depth M" read afresh for every n and M:
    the term is at least M long and its coordinates 1..M are the
    target's."""
    at = seq.at if isinstance(seq, RepeatFamily) else seq
    n_max, half = bounds.n_max, bounds.n_max // 2
    status, bits, exact = "holds", [], isinstance(seq, RepeatFamily)
    for M in range(1, bounds.m_max + 1):
        name = f"prefix agreement to depth {M}"
        ok = [length(at(k)) >= M and all(
            coordinate(at(k), i) == coordinate(target, i)
            for i in range(1, M + 1)) for k in range(1, n_max + 1)]
        stable = len(set(ok[half:])) == 1
        if not any(ok[half:]):
            bits.append(f"{name}: fails for every large sampled n")
            return ("fails", "; ".join(bits), (n_max, at(n_max), name),
                    exact and stable)
        if not ok[-1]:
            status = "unknown"
            bits.append(f"{name}: still failing at n={n_max}")
            exact = False
        else:
            last = max((i for i, good in enumerate(ok) if not good),
                       default=-1)
            bits.append(f"{name}: satisfied for n>{last + 1}")
            exact = exact and stable
    return status, "; ".join(bits), None, exact


def _verdict(g, seq, target, bounds):
    v = check_convergence(g, seq, target, bounds)
    return v.status, v.detail, v.witness, v.exact


def _sequences(x, other):
    """Approach sequences to x: repeat families, swerves and finite
    truncations."""
    out = [seq for seq in registry().values() if isinstance(seq, RepeatFamily)]
    out.append(lambda k: x)
    out.append(lambda k: other)
    out.append(lambda k: PeriodicPoint(prefix(x, k), other.cycle))
    out.append(lambda k: FinitePoint(prefix(x, k // 2), FIXTURES[0].points[
        "zero"].tail))
    return out


def test_lazy_agreement_equals_the_per_depth_condition():
    compared = 0
    bounds = ConvergenceBounds(m_max=5, n_max=12)
    for fx in FIXTURES:
        targets = [p for p in fx.points.values() if length(p) != 0
                   and isinstance(p, PeriodicPoint)]
        for x in targets:
            other = next(p for p in targets if p != x) if len(targets) > 1 \
                else PeriodicPoint((), (d(),))
            for seq in _sequences(x, other):
                assert _verdict(fx.source, seq, x, bounds) == \
                    _definition(seq, x, bounds), (x, seq)
                compared += 1
    assert compared > 50


def test_agreement_depths_read_the_definition_in_each_case():
    g = FIXTURES[0].source
    tail = FIXTURES[0].points["zero"].tail
    x, other = PeriodicPoint((), (d(),)), PeriodicPoint((), (f(1),))
    bounds = ConvergenceBounds(m_max=4, n_max=10)
    cases = [
        # terms shorter than M: the first terms are shorter than m_max
        (lambda k: FinitePoint((d(),) * (k // 2), tail), "holds", None,
         False),
        # every term fails at M = 1: the witness is the term at n_max
        (lambda k: other, "fails",
         (10, other, "prefix agreement to depth 1"), False),
        # agreement ends only at the last term: undecided
        (lambda k: x if k < 10 else other, "unknown", None, False),
        (lambda k: PeriodicPoint((d(),) * k, (f(1),)), "holds", None, False),
        # repeat families certify exactly, converging or not
        (RepeatFamily((d(),), other), "holds", None, True),
        (RepeatFamily((f(1),), x), "fails",
         (10, RepeatFamily((f(1),), x).at(10),
          "prefix agreement to depth 1"), True),
        (RepeatFamily((d(),), FinitePoint((), tail)), "holds", None, True),
    ]
    for seq, status, witness, exact in cases:
        got = _verdict(g, seq, x, bounds)
        assert got == _definition(seq, x, bounds), seq
        assert got[0] == status and got[2] == witness and got[3] == exact
    assert length(cases[0][0](1)) < bounds.m_max
