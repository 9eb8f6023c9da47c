"""The cost cuts of a continuity probe change no answer: evaluation that
splices stored images equals plain evaluation, and convergence read with
lazily extended prefix agreement equals the per-depth condition read
afresh."""

import dataclasses

import pytest

from ultrashift.codes import MapError, RuleMap, _ProbeMemo, eval_map
from ultrashift.corpus import build_fixture, d, f, n, registry
from ultrashift.points import (
    ConvergenceBounds,
    FinitePoint,
    PeriodicPoint,
    RepeatFamily,
    check_convergence,
    coordinate,
    length,
    shift,
    shift_n,
)

FIXTURES = [build_fixture(name) for name in "abcd"]


def _outcome(phi, x):
    """eval_map's result as comparable data, or the error it raises."""
    try:
        res = eval_map(phi, x)
    except MapError as err:
        return type(err).__name__, str(err)
    return res.prefix, res.resolved, str(res.resolved)


def _counting(memo):
    """Record the points whose symbol a memoized map is asked for."""
    asked = []
    symbol_at = memo.symbol_at
    memo.symbol_at = lambda x: (asked.append(x), symbol_at(x))[1]
    return asked


def _maps_on_their_source(fx):
    return [phi for phi in fx.maps.values() if phi.source is fx.source]


def test_spliced_evaluation_equals_plain_evaluation_on_fixture_pools():
    compared = 0
    for fx in FIXTURES:
        pool = fx.sample_pool(30, seed=5) + list(fx.points.values())
        for phi in _maps_on_their_source(fx):
            memo = _ProbeMemo(phi)
            for x in pool:
                # evaluate the shifts first, so that x splices onto them
                for k in (3, 1, 0):
                    y = shift_n(x, k)
                    assert _outcome(memo, y) == _outcome(phi, y), y
                    compared += 1
    assert compared > 400


def test_a_stored_shift_is_spliced_after_one_symbol():
    fx = FIXTURES[0]
    x = PeriodicPoint((d(), d(), f(2)), (f(3), f(1)))
    memo = _ProbeMemo(fx.phi)
    eval_map(memo, shift(x))
    asked = _counting(memo)
    assert _outcome(memo, x) == _outcome(fx.phi, x)
    assert asked == [x]
    assert _outcome(memo, x) == _outcome(fx.phi, x)
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


@pytest.mark.parametrize("seq", REPEATS, ids=str)
def test_spliced_evaluation_equals_plain_evaluation_on_repeat_terms(seq):
    fx = FIXTURES[0]
    for phi in _maps_on_their_source(fx):
        memo = _ProbeMemo(phi)
        for k in range(1, 10):  # growing terms, as a probe reads them
            x = seq.at(k)
            assert _outcome(memo, x) == _outcome(phi, x), x


def test_repeat_terms_of_the_b_loop_equal_plain_evaluation():
    fx = FIXTURES[1]
    seq = RepeatFamily((n(0), n(1)), PeriodicPoint((n(2),), (n(1), n(0))))
    memo = _ProbeMemo(fx.phi)
    for k in range(1, 10):
        assert _outcome(memo, seq.at(k)) == _outcome(fx.phi, seq.at(k))


def test_equal_finite_points_with_differently_named_tails():
    # a rule that hands the tail back: the image's tail keeps the input's
    # name, so a stored image must not serve an equal point named apart
    fx = FIXTURES[0]
    g = fx.source
    named = fx.points["zero"].tail
    plain = dataclasses.replace(named, name=None)
    assert named == plain and str(named) != str(plain)
    identity = RuleMap(g, g, lambda x: coordinate(x, 1), "identity rule")
    for phi in (identity, fx.phi):
        memo = _ProbeMemo(phi)
        for path in ((), (d(),), (f(2), d()), (d(), d(), f(5))):
            for tail in (named, plain, named):
                for y in (FinitePoint(path, tail),
                          FinitePoint((d(),) + path, tail)):
                    assert _outcome(memo, y) == _outcome(phi, y), y


def test_failed_images_are_not_stored():
    fx = FIXTURES[3]
    bad = RuleMap(fx.source, fx.target, lambda x: f(-5), "broken")
    memo = _ProbeMemo(bad)
    x = PeriodicPoint((), (fx.points["all_e0"].cycle[0],))
    for _ in range(2):
        with pytest.raises(MapError):
            eval_map(memo, x)
    assert memo.images == {}


# -- lazy prefix agreement ------------------------------------------------------


def _reference_convergence(seq, target, bounds):
    """The status and detail lines of an infinite-target convergence check,
    with the depth-M condition read from coordinate 1 for every term."""
    at = seq.at if isinstance(seq, RepeatFamily) else seq
    status, bits, half = "holds", [], bounds.n_max // 2
    for M in range(1, bounds.m_max + 1):
        name = f"prefix agreement to depth {M}"
        ok = [length(at(k)) >= M and all(
            coordinate(at(k), i) == coordinate(target, i)
            for i in range(1, M + 1)) for k in range(1, bounds.n_max + 1)]
        if not any(ok[half:]):
            return "fails", bits + [f"{name}: fails for every large sampled n"]
        last = max((i for i, good in enumerate(ok) if not good), default=-1)
        if last == len(ok) - 1:
            status = "unknown"
            bits.append(f"{name}: still failing at n={bounds.n_max}")
        else:
            bits.append(f"{name}: satisfied for n>{last + 1}")
    return status, bits


def _both(g, seq, target, bounds):
    """(lazy, reference) answers."""
    v = check_convergence(g, seq, target, bounds)
    return (v.status, v.detail.split("; ")), \
        _reference_convergence(seq, target, bounds)


def _sequences(x, other):
    """Approach sequences to x: repeat families, swerves and finite
    truncations."""
    out = [seq for seq in registry().values() if isinstance(seq, RepeatFamily)]
    out.append(lambda k: x)
    out.append(lambda k: other)
    prefix = lambda k: tuple(coordinate(x, i) for i in range(1, k + 1))  # noqa
    out.append(lambda k: PeriodicPoint(prefix(k), other.cycle))
    out.append(lambda k: FinitePoint(prefix(k // 2), FIXTURES[0].points[
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
                lazy, ref = _both(fx.source, seq, x, bounds)
                assert lazy == ref, (x, seq)
                compared += 1
    assert compared > 50
