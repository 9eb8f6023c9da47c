"""A continuity probe skips what holds by construction, and each cut
leaves every verdict as it was.

- The constant approach strategy is not evaluated: a constant sequence
  converges at every point.
- At an infinite point with ``m_max <= n_max`` the inward convergence
  check is skipped: term n of every approach strategy agrees with the
  point on at least n coordinates.

Also here: an approach term the map cannot place, the terms a failure
shows, and the bounds a probe takes and echoes."""

import random
from collections import Counter

import pytest

from helpers_random import identity_map, mirror_map, random_family_graph
from ultrashift import codes, sampling
from ultrashift.codes import (MapError, ProbeBounds, RuleMap,
                              _approach_strategies, eval_map,
                              probe_continuity)
from ultrashift.corpus import build_fixture
from ultrashift.graphs import EdgeRef
from ultrashift.intsets import INFINITE
from ultrashift.points import (ConvergenceBounds, FinitePoint, PointError,
                               RepeatFamily, _agreement, check_convergence,
                               length, prefix)
from ultrashift.verdicts import FAILS, HOLDS

FIXTURES = [build_fixture(name) for name in "abcd"]
FA = FIXTURES[0]
CRITERION_8 = ProbeBounds(n_max=8, conv=ConvergenceBounds(m_max=4, n_max=12))


def _fixture_cases():
    """(map, points): each map of fixtures a-d on its source, at its named
    points and a sample pool."""
    for fx in FIXTURES:
        points = list(fx.points.values()) + fx.sample_pool(20, seed=3)
        for phi in fx.maps.values():
            if phi.source is fx.source:
                yield phi, points


def _fixture_images():
    """(map, point, image) over ``_fixture_cases``, where the image
    evaluates."""
    for phi, points in _fixture_cases():
        for x in points:
            try:
                yield phi, x, eval_map(phi, x)
            except MapError:
                continue


# -- the constant strategy ---------------------------------------------------------


@pytest.mark.parametrize("n_max", [1, 2, 12])
def test_a_constant_sequence_converges_at_every_pool_point(n_max):
    bounds = ConvergenceBounds(m_max=4, n_max=n_max)
    lengths = []
    for phi, x, y in _fixture_images():
        for g, z in ((phi.source, x), (phi.target, y)):
            v = check_convergence(g, lambda n, z=z: z, z, bounds)
            assert v.status == HOLDS, (z, v)
            lengths.append(length(z))
    infinite = lengths.count(INFINITE)
    assert infinite > 20 and len(lengths) - infinite > 20


def test_probe_notes_begin_with_the_constant_strategy():
    probes = 0
    for phi, x, _ in _fixture_images():
        v = probe_continuity(phi, x, CRITERION_8)
        if v.status != FAILS:  # a failure reports its strategy alone
            assert v.detail.startswith("constant: images converge"), v
            probes += 1
    assert probes > 40


# -- inward convergence by construction ------------------------------------------


def _infinite_points():
    """(graph, point) for the infinite points of fixtures a-d, named and
    sampled, and of seeded random family graphs' pools."""
    for fx in FIXTURES:
        for x in list(fx.points.values()) + fx.sample_pool(30, seed=3):
            if length(x) == INFINITE:
                yield fx.source, x
    rng = random.Random(71)
    for tag in range(10):
        g = random_family_graph(rng, tag)
        for x in sampling.point_pool(g, random.Random(tag), 24):
            if length(x) == INFINITE:
                yield g, x


def test_every_approach_term_agrees_with_x_on_n_coordinates():
    kinds = Counter()
    for g, x in _infinite_points():
        kinds["preamble" if x.preamble else "no preamble"] += 1
        for label, seq in _approach_strategies(g, x, ProbeBounds()):
            at = seq.at if isinstance(seq, RepeatFamily) else seq
            for n in range(1, 13):
                term = at(n)
                assert _agreement(term, prefix(x, n)) >= n, (label, x, n)
                if term != x:  # the strategy found a point apart from x
                    kinds["finite" if isinstance(term, FinitePoint)
                          else label.split(" to ")[0]] += 1
    assert kinds["preamble"] > 20 and kinds["no preamble"] > 20
    assert kinds["swerve after a growing prefix"] > 100
    assert kinds["swerve"] > 100  # "swerve to e after whole cycles"
    assert kinds["finite"] > 100  # truncations to finite points


def _forced_probe(phi, x, bounds):
    """The probe's verdict read with the inward check run on every
    strategy: (status, detail) when no strategy fails, else (status, the
    failing strategy)."""
    g = phi.source
    target = eval_map(phi, x)
    worst, notes = "holds", ["constant: images converge"]
    for label, seq in _approach_strategies(g, x, bounds):
        if check_convergence(g, seq, x, bounds.conv).status != "holds":
            continue
        at = seq.at if isinstance(seq, RepeatFamily) else seq
        out = check_convergence(phi.target,
                                lambda n, at=at: eval_map(phi, at(n)),
                                target, bounds.conv)
        if out.status == "fails":
            return "fails", label
        if out.status == "unknown":
            worst = "unknown"
            notes.append(f"{label}: undecided")
        else:
            notes.append(f"{label}: images converge"
                         + (" (exact)" if out.exact else ""))
    return worst, "; ".join(notes)


def _inward_calls(monkeypatch):
    """Record the inward convergence checks: those whose target is the
    probed point itself (the outward check's target is its image)."""
    calls = []
    check = codes.check_convergence

    def recording(g, seq, target, bounds=None):
        calls.append(target)
        return check(g, seq, target, bounds)
    monkeypatch.setattr(codes, "check_convergence", recording)
    return calls


def _random_cases(seed: int, graphs: int, size: int):
    """(map, pool): mirror and identity maps of seeded random family
    graphs, each with a seeded pool of its source."""
    rng = random.Random(seed)
    for tag in range(graphs):
        g = random_family_graph(rng, tag)
        pool = sampling.point_pool(g, random.Random(tag), size)
        for phi in (mirror_map(g), identity_map(g)):
            yield phi, pool


@pytest.mark.parametrize("conv", [ConvergenceBounds(m_max=8, n_max=4),
                                  ConvergenceBounds(m_max=4, n_max=12),
                                  ConvergenceBounds(m_max=3, n_max=3)],
                         ids=str)
def test_a_probe_equals_the_probe_with_the_inward_check_forced(
        monkeypatch, conv):
    bounds = ProbeBounds(n_max=8, conv=conv)
    calls = _inward_calls(monkeypatch)
    compared = dropped = 0
    cases = list(_fixture_cases()) + list(_random_cases(29, 4, 12))
    for phi, points in cases:
        for x in points:
            try:
                want = _forced_probe(phi, x, bounds)
            except MapError:
                continue
            calls.clear()
            v = probe_continuity(phi, x, bounds)
            got = (v.status, v.witness["strategy"] if v.status == "fails"
                   else v.detail)
            assert got == want, (phi, x)
            inward = [t for t in calls if t is x]
            strategies = _approach_strategies(phi.source, x, bounds)
            if length(x) == INFINITE and conv.m_max <= conv.n_max:
                assert inward == []
            elif v.status != "fails":  # a failure ends the loop early
                assert len(inward) == len(strategies), (phi, x)
            compared += 1
            dropped += v.status != "fails" and \
                len(v.detail.split("; ")) < len(strategies) + 1
    assert compared > 200
    if conv.m_max > conv.n_max:
        # the check ran, and left strategies out: skipping it would not do
        assert dropped > 20


# -- an approach term the map cannot place; what a failure shows ------------------


def _refusing(edges):
    """Fixture a's map, refusing every point that holds one of the edges
    among its first twelve coordinates."""
    def rule(y):
        hit = [e for e in edges if e in prefix(y, 12)]
        if hit:
            raise MapError(f"{hit[0]} refused")
        return FA.phi.symbol_at(y)
    return RuleMap(FA.source, FA.target, rule, "refusing")


def test_a_term_that_cannot_be_placed_leaves_its_strategy_undecided():
    x = FA.points["all_d"]
    f1, f2 = EdgeRef("f", 1), EdgeRef("f", 2)
    v = probe_continuity(_refusing([f1, f2]), x)
    term = "(d[0] f[1] (d[0])* ...)"
    assert v.status == "unknown" and str(v.witness) == term
    assert v.detail.split("; ") == [
        "constant: images converge",
        f"swerve to f[1] after whole cycles: image of {term} cannot be "
        "evaluated: f[1] refused",
        "swerve to f[2] after whole cycles: image of "
        "(d[0] f[2] (d[0])* ...) cannot be evaluated: f[2] refused",
        "truncate to finite points: images converge"]
    # a later strategy's failure still decides
    v = probe_continuity(_refusing([f1]), x)
    assert v.status == "fails"
    assert v.witness["strategy"] == "swerve to f[2] after whole cycles"


def test_a_failure_shows_only_terms_the_check_read():
    # with n_max = 1 the check reads term 1 alone; term 2, which the map
    # refuses, stays out of the witness
    d, f1 = EdgeRef("d", 0), EdgeRef("f", 1)

    def rule(y):
        if prefix(y, 2) == (d, d) and f1 in prefix(y, 4):
            raise MapError("refused")
        return FA.phi.symbol_at(y)
    phi = RuleMap(FA.source, FA.target, rule, "refusing")
    x = FA.points["all_d"]
    v = probe_continuity(phi, x, ProbeBounds(
        conv=ConvergenceBounds(m_max=1, n_max=1)))
    assert v.status == "fails"
    assert [str(t) for t in v.witness["terms"]] == ["(d[0] f[1] (d[0])* ...)"]
    v = probe_continuity(FA.phi, x, ProbeBounds(
        conv=ConvergenceBounds(m_max=1, n_max=2)))
    assert [str(t) for t in v.witness["terms"]] == [
        "(d[0] f[1] (d[0])* ...)", "(d[0] d[0] f[1] (d[0])* ...)"]
    v = probe_continuity(FA.phi, x)
    assert len(v.witness["terms"]) == 3


# -- bounds ----------------------------------------------------------------------


def test_probe_bounds_echo_the_probe_n_max_under_its_own_key():
    got = ProbeBounds(n_max=1).as_dict()
    assert got["probe_n_max"] == 1 and got["n_max"] == 32
    v = probe_continuity(FIXTURES[3].phi, FIXTURES[3].points["all_e0"],
                         CRITERION_8)
    assert (v.bounds["probe_n_max"], v.bounds["n_max"]) == (8, 12)


@pytest.mark.parametrize("bounds, kw", [
    (ConvergenceBounds, {"n_max": 0}), (ConvergenceBounds, {"m_max": 0}),
    (ConvergenceBounds, {"n_max": -3}),
    (ConvergenceBounds, {"m_max": -1, "n_max": 4}),
    (ProbeBounds, {"n_max": 0})])
def test_bounds_that_bound_nothing_are_refused(bounds, kw):
    # n_max = 0 once made probe_continuity raise IndexError at fixture a's
    # f3, and m_max = 0 made every convergence check hold unchecked; bounds
    # of 1 are taken (the tests above probe with them)
    with pytest.raises((PointError, MapError), match="at least 1"):
        bounds(**kw)
