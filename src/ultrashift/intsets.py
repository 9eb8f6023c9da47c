"""Exact algebra for integer index sets and affine index maps.

An :class:`IndexSet` is a finite union of integer intervals, where an
interval may be unbounded on either side.  This class of sets contains
every finite set of points and every half-line, and it is closed under
union, intersection, difference, and under images/preimages of affine
maps ``k -> a*k + b`` with ``a`` in ``{-1, 0, +1}``.  All values are
immutable and all operations are pure, so sharing across threads is safe.

Sets over several named index families are handled by :class:`SymbolicSet`,
which maps family names to index sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

INFINITE = float("inf")


def _lo_key(lo: int | None) -> float:
    return -INFINITE if lo is None else lo


def _merge_spans(spans: Iterable[tuple[int | None, int | None]]) -> tuple:
    """Sort spans and merge overlapping or adjacent ones."""
    items = sorted(spans, key=lambda s: (_lo_key(s[0]), s[1] is None, s[1] or 0))
    out: list[tuple[int | None, int | None]] = []
    for lo, hi in items:
        if lo is not None and hi is not None and lo > hi:
            continue
        if out:
            plo, phi = out[-1]
            # sorted by lo, so lo is None here implies the previous lo is too
            if phi is None or lo is None or phi >= lo - 1:
                if phi is not None and (hi is None or hi > phi):
                    out[-1] = (plo, hi)
                continue
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class IndexSet:
    """Canonical finite union of integer intervals.

    ``spans`` is a sorted tuple of ``(lo, hi)`` pairs with ``None`` meaning
    unbounded; spans are pairwise disjoint and non-adjacent, so structural
    equality is set equality.  Any span list given is put in that form:
    spans are sorted and merged, and empty ones dropped.
    """

    spans: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "spans", _merge_spans(self.spans))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "IndexSet":
        return IndexSet(())

    @staticmethod
    def all() -> "IndexSet":
        return IndexSet(((None, None),))

    @staticmethod
    def of(*points: int) -> "IndexSet":
        return IndexSet((p, p) for p in points)

    @staticmethod
    def between(lo: int, hi: int) -> "IndexSet":
        return IndexSet(((lo, hi),))

    @staticmethod
    def at_least(a: int) -> "IndexSet":
        return IndexSet(((a, None),))

    @staticmethod
    def at_most(a: int) -> "IndexSet":
        return IndexSet(((None, a),))

    @staticmethod
    def nonzero() -> "IndexSet":
        return IndexSet(((None, -1), (1, None)))

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.spans

    def is_finite(self) -> bool:
        return all(lo is not None and hi is not None for lo, hi in self.spans)

    def cardinality(self):
        """Number of members, or INFINITE."""
        if not self.is_finite():
            return INFINITE
        return sum(hi - lo + 1 for lo, hi in self.spans)

    def contains(self, k: int) -> bool:
        return any((lo is None or lo <= k) and (hi is None or k <= hi)
                   for lo, hi in self.spans)

    def min(self) -> int | None:
        """Least member, or None if empty or unbounded below."""
        if not self.spans:
            return None
        return self.spans[0][0]

    def max(self) -> int | None:
        if not self.spans:
            return None
        return self.spans[-1][1]

    def members(self) -> list[int]:
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite index set")
        out: list[int] = []
        for lo, hi in self.spans:
            out.extend(range(lo, hi + 1))
        return out

    def iter_from_extremes(self) -> Iterator[int]:
        """Yield members working inward from the finite endpoints, zigzagging
        outward from zero on doubly unbounded spans.  Useful for bounded
        searches on infinite sets."""
        seen = set()
        for step in itertools.count():
            emitted = False
            for lo, hi in self.spans:
                if lo is None and hi is None:
                    cands: tuple = (step, -step)
                else:
                    cands = ((lo + step) if lo is not None else None,
                             (hi - step) if hi is not None else None)
                for k in cands:
                    if k is None or k in seen or not self.contains(k):
                        continue
                    seen.add(k)
                    emitted = True
                    yield k
            if not emitted and self.is_finite():
                return

    def sample(self, limit: int) -> list[int]:
        """Up to ``limit`` members, picked from the edges of each span."""
        return list(itertools.islice(self.iter_from_extremes(), limit))

    # -- algebra -----------------------------------------------------------

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(self.spans + other.spans)

    def intersect(self, other: "IndexSet") -> "IndexSet":
        out = []
        for alo, ahi in self.spans:
            for blo, bhi in other.spans:
                lo = alo if blo is None else blo if alo is None else max(alo, blo)
                hi = ahi if bhi is None else bhi if ahi is None else min(ahi, bhi)
                if lo is None or hi is None or lo <= hi:
                    out.append((lo, hi))
        return IndexSet(out)

    def complement(self) -> "IndexSet":
        """Complement within the full integer line."""
        out = []
        cursor: int | None = None  # None means -infinity before first span
        started = False
        for lo, hi in self.spans:
            if lo is not None:
                left = None if not started and cursor is None else cursor
                out.append((left, lo - 1))
            if hi is None:
                return IndexSet(out)
            cursor = hi + 1
            started = True
        out.append((cursor, None))
        return IndexSet(out)

    def difference(self, other: "IndexSet") -> "IndexSet":
        return self.intersect(other.complement())

    def subset_of(self, other: "IndexSet") -> bool:
        return self.difference(other).is_empty()

    def shift(self, b: int) -> "IndexSet":
        return IndexSet(tuple((None if lo is None else lo + b,
                               None if hi is None else hi + b)
                              for lo, hi in self.spans))

    def reflect(self, b: int) -> "IndexSet":
        """The set {b - k : k in self}."""
        return IndexSet(
            (None if hi is None else b - hi, None if lo is None else b - lo)
            for lo, hi in self.spans)

    def literal(self) -> str:
        """The DSL's span list, one item per span, which parses back; the
        empty set has none and keeps the set form."""
        return ",".join(_span_text(lo, hi, "Z")
                        for lo, hi in self.spans) or str(self)

    def __str__(self) -> str:
        return "{" + ", ".join(_span_text(lo, hi, "*")
                               for lo, hi in self.spans) + "}"


def _span_text(lo: int | None, hi: int | None, whole: str) -> str:
    return whole if lo is None and hi is None else f"<={hi}" if lo is None \
        else f">={lo}" if hi is None else str(lo) if lo == hi \
        else f"{lo}..{hi}"


@dataclass(frozen=True)
class AffineIndexMap:
    """The map ``k -> scale*k + offset`` with scale restricted to -1, 0, +1.

    The restriction keeps images and preimages of index sets inside the
    IndexSet class, so all derived computations stay exact.
    """

    scale: int
    offset: int

    def __post_init__(self):
        if self.scale not in (-1, 0, 1):
            raise ValueError(f"affine scale must be -1, 0 or +1, got {self.scale}")

    def apply(self, k: int) -> int:
        return self.scale * k + self.offset

    def image(self, s: IndexSet) -> IndexSet:
        if s.is_empty():
            return IndexSet.empty()
        if self.scale == 0:
            return IndexSet.of(self.offset)
        if self.scale == 1:
            return s.shift(self.offset)
        return s.reflect(self.offset)

    def preimage(self, s: IndexSet, domain: IndexSet) -> IndexSet:
        """Exact preimage of ``s``, clipped to ``domain``."""
        if self.scale == 0:
            return domain if s.contains(self.offset) else IndexSet.empty()
        if self.scale == 1:
            return s.shift(-self.offset).intersect(domain)
        return s.reflect(self.offset).intersect(domain)

    def solve(self, value: int) -> int | None:
        """The k with scale*k + offset == value, if one exists."""
        if self.scale == 0:
            return None
        return self.scale * (value - self.offset)

    def compose(self, inner: "AffineIndexMap") -> "AffineIndexMap":
        return AffineIndexMap(self.scale * inner.scale,
                              self.scale * inner.offset + self.offset)

    def inverse(self) -> "AffineIndexMap":
        if self.scale == 0:
            raise ValueError("constant maps are not invertible")
        return AffineIndexMap(self.scale, -self.scale * self.offset)

    def __str__(self) -> str:
        if self.scale == 0:
            return str(self.offset)
        k = "k" if self.scale == 1 else "-k"
        if self.offset == 0:
            return k
        return f"{k}{self.offset:+d}"


IDENTITY_MAP = AffineIndexMap(1, 0)


def shift_map(b: int) -> AffineIndexMap:
    return AffineIndexMap(1, b)


def const_map(b: int) -> AffineIndexMap:
    return AffineIndexMap(0, b)


@dataclass(frozen=True)
class SymbolicSet:
    """A set of indexed elements drawn from named families.

    Stored as a sorted tuple of ``(family, IndexSet)`` entries with empty
    index sets dropped, so structural equality is set equality.  The same
    representation serves vertex sets and edge sets; which families are of
    which kind is the owning graph's business.
    """

    entries: tuple = ()

    @staticmethod
    def of(*pairs) -> "SymbolicSet":
        acc: dict[str, IndexSet] = {}
        for fam, iset in pairs:
            if fam in acc:
                acc[fam] = acc[fam].union(iset)
            else:
                acc[fam] = iset
        return SymbolicSet(tuple(sorted(
            (f, s) for f, s in acc.items() if not s.is_empty())))

    @staticmethod
    def empty() -> "SymbolicSet":
        return SymbolicSet(())

    @staticmethod
    def singleton(family: str, index: int) -> "SymbolicSet":
        return SymbolicSet.of((family, IndexSet.of(index)))

    def part(self, family: str) -> IndexSet:
        for f, s in self.entries:
            if f == family:
                return s
        return IndexSet.empty()

    def is_empty(self) -> bool:
        return not self.entries

    def contains(self, family: str, index: int) -> bool:
        return self.part(family).contains(index)

    def cardinality(self):
        total = 0
        for _, s in self.entries:
            c = s.cardinality()
            if c == INFINITE:
                return INFINITE
            total += c
        return total

    def is_finite(self) -> bool:
        return self.cardinality() != INFINITE

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet.of(*self.entries, *other.entries)

    def intersect(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet.of(*((f, s.intersect(other.part(f)))
                                for f, s in self.entries))

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet.of(*((f, s.difference(other.part(f)))
                                for f, s in self.entries))

    def subset_of(self, other: "SymbolicSet") -> bool:
        return all(s.subset_of(other.part(f)) for f, s in self.entries)

    def proper_subset_of(self, other: "SymbolicSet") -> bool:
        return self.subset_of(other) and self != other

    def members(self) -> list[tuple[str, int]]:
        out = []
        for f, s in self.entries:
            out.extend((f, k) for k in s.members())
        return out

    def sample(self, limit: int) -> list[tuple[str, int]]:
        out = []
        for f, s in self.entries:
            out.extend((f, k) for k in s.sample(limit))
        return out[:limit] if len(out) > limit else out

    def __str__(self) -> str:
        if not self.entries:
            return "{}"
        bits = []
        for f, s in self.entries:
            for lo, hi in s.spans:
                if lo is None and hi is None:
                    bits.append(f"{f}[*]")
                elif lo is None:
                    bits.append(f"{f}[<={hi}]")
                elif hi is None:
                    bits.append(f"{f}[>={lo}]")
                elif lo == hi:
                    bits.append(f"{f}[{lo}]")
                else:
                    bits.append(f"{f}[{lo}..{hi}]")
        return "{" + ", ".join(bits) + "}"
