"""Index-set algebra: brute-force agreement and algebraic laws."""

import pytest
from hypothesis import given, strategies as st

from ultrashift.intsets import (
    INFINITE,
    AffineIndexMap,
    IndexSet,
    SymbolicSet,
    const_map,
    shift_map,
)

REFERENCE_RANGE = range(-50, 51)


def brute(s: IndexSet) -> set:
    return {k for k in REFERENCE_RANGE if s.contains(k)}


offsets = st.integers(min_value=-20, max_value=20)


@st.composite
def index_sets(draw):
    """Random canonical IndexSets built from up to 6 points/rays."""
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["point", "ge", "le", "interval"]))
        a = draw(offsets)
        if kind == "point":
            parts.append(IndexSet.of(a))
        elif kind == "ge":
            parts.append(IndexSet.at_least(a))
        elif kind == "le":
            parts.append(IndexSet.at_most(a))
        else:
            b = draw(offsets)
            parts.append(IndexSet.between(min(a, b), max(a, b)))
    acc = IndexSet.empty()
    for p in parts:
        acc = acc.union(p)
    return acc


@given(index_sets(), index_sets())
def test_union_intersect_difference_match_brute_force(a, b):
    assert brute(a.union(b)) == brute(a) | brute(b)
    assert brute(a.intersect(b)) == brute(a) & brute(b)
    assert brute(a.difference(b)) == brute(a) - brute(b)


@given(index_sets(), index_sets())
def test_union_intersect_commute_on_canonical_forms(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)


@given(index_sets(), index_sets(), index_sets())
def test_associativity(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(index_sets())
def test_idempotence(a):
    assert a.union(a) == a
    assert a.intersect(a) == a


@given(index_sets(), index_sets())
def test_difference_union_recovers_left_operand(a, b):
    assert a.difference(b).union(a.intersect(b)) == a


@given(index_sets(), index_sets())
def test_subset_and_emptiness_are_decided_exactly(a, b):
    assert a.subset_of(b) == (brute(a) <= brute(b) and a.difference(b).is_empty())
    assert a.is_empty() == (not a.spans)


@given(index_sets())
def test_complement_is_involutive(a):
    assert a.complement().complement() == a
    assert a.intersect(a.complement()).is_empty()


@given(index_sets(), st.sampled_from([-1, 0, 1]), offsets, index_sets())
def test_affine_image_and_preimage_match_brute_force(s, scale, b, dom):
    m = AffineIndexMap(scale, b)
    img = m.image(s)
    pre = m.preimage(s, dom)
    assert {m.apply(k) for k in brute(s)} <= brute(img) | {
        m.apply(k) for k in brute(s)
    }
    # membership agreement on the reference window
    for k in range(-30, 31):
        assert img.contains(m.apply(k)) or not s.contains(k)
        assert pre.contains(k) == (dom.contains(k) and s.contains(m.apply(k)))


def test_cardinality_classes():
    assert IndexSet.at_most(-1).cardinality() == INFINITE
    assert IndexSet.between(2, 5).cardinality() == 4
    assert IndexSet.empty().cardinality() == 0
    assert IndexSet.nonzero().cardinality() == INFINITE


def test_canonicalization_merges_adjacent_pieces():
    # {0} sitting against a ray extends it
    assert IndexSet.of(0).union(IndexSet.at_least(1)) == IndexSet.at_least(0)
    # two half lines covering everything collapse to the full line
    assert IndexSet.at_most(0).union(IndexSet.at_least(0)) == IndexSet.all()
    assert IndexSet.at_most(-1).union(IndexSet.at_least(1)) == IndexSet.nonzero()


bounds_or_none = st.one_of(st.none(), offsets)


@given(st.lists(st.tuples(bounds_or_none, bounds_or_none), max_size=6))
def test_raw_span_lists_are_canonicalized(spans):
    # any span list, unsorted, overlapping, adjacent or empty, names the
    # set its spans cover, and equal sets compare and hash equal
    s = IndexSet(tuple(spans))
    want = {k for k in REFERENCE_RANGE
            if any((lo is None or lo <= k) and (hi is None or k <= hi)
                   for lo, hi in spans)}
    assert brute(s) == want
    rebuilt = IndexSet.empty()
    for lo, hi in spans:
        piece = IndexSet.all()
        if lo is not None:
            piece = piece.intersect(IndexSet.at_least(lo))
        if hi is not None:
            piece = piece.intersect(IndexSet.at_most(hi))
        rebuilt = rebuilt.union(piece)
    assert s == rebuilt and hash(s) == hash(rebuilt)
    assert IndexSet(s.spans).spans == s.spans
    assert s.cardinality() >= 0
    assert s.is_empty() == (s.cardinality() == 0)


def test_raw_spans_examples():
    assert IndexSet(((0, 1), (2, 3))) == IndexSet.between(0, 3)
    assert hash(IndexSet(((0, 1), (2, 3)))) == hash(IndexSet.between(0, 3))
    assert IndexSet(((5, 2),)).is_empty()
    assert IndexSet(((5, 2),)).cardinality() == 0


def test_ray_point_intersection():
    got = IndexSet.at_least(1).intersect(IndexSet.of(0, 3))
    assert got == IndexSet.of(3)


def test_affine_preimage_examples():
    dom = IndexSet.all()
    assert AffineIndexMap(1, 0).preimage(IndexSet.at_least(1), dom) == IndexSet.at_least(1)
    assert shift_map(1).preimage(IndexSet.at_most(-1), dom) == IndexSet.at_most(-2)
    assert const_map(0).preimage(IndexSet.of(0), IndexSet.at_least(0)) == IndexSet.at_least(0)
    assert const_map(0).preimage(IndexSet.of(1), dom).is_empty()


def test_affine_solve_and_inverse():
    m = AffineIndexMap(-1, 3)
    assert m.solve(5) == -2
    assert m.inverse().apply(m.apply(7)) == 7
    with pytest.raises(ValueError):
        const_map(2).inverse()
    with pytest.raises(ValueError):
        AffineIndexMap(2, 0)


def test_iter_from_extremes_covers_edges_of_unbounded_sets():
    s = IndexSet.at_most(-1)
    got = s.sample(4)
    assert got[0] == -1 and set(got) <= brute(s) | {k for k in range(-100, 0)}


def test_symbolic_set_algebra_and_display():
    v_ray = SymbolicSet.of(("v", IndexSet.at_least(1)))
    v_pts = SymbolicSet.of(("v", IndexSet.of(0, 3)))
    assert v_ray.intersect(v_pts) == SymbolicSet.singleton("v", 3)
    assert v_pts.union(v_ray).part("v") == IndexSet.at_least(0).union(IndexSet.of(0, 3))
    w = SymbolicSet.of(("w", IndexSet.at_most(-1)))
    assert w.cardinality() == INFINITE
    assert not w.subset_of(v_ray)
    assert w.intersect(v_ray).is_empty()
    assert str(SymbolicSet.singleton("v", 3)) == "{v[3]}"
    assert SymbolicSet.of(("v", IndexSet.of(0)), ("v", IndexSet.at_least(1))) == SymbolicSet.of(
        ("v", IndexSet.at_least(0))
    )


def test_symbolic_set_members_and_difference():
    s = SymbolicSet.of(("v", IndexSet.between(0, 2)), ("w", IndexSet.of(5)))
    assert s.members() == [("v", 0), ("v", 1), ("v", 2), ("w", 5)]
    assert s.difference(SymbolicSet.singleton("v", 1)).members() == [
        ("v", 0),
        ("v", 2),
        ("w", 5),
    ]
    assert SymbolicSet.empty().is_empty()
