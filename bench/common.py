"""Pieces shared by the workloads: the verdict record and the benchmark's
own view of points and index spans.

The helpers here read points and sets through their plain fields
(``path``/``tail``, ``preamble``/``cycle``, ``spans``) and never call into
the package, so the correctness checks built on them do not trust the code
they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    """One verdict: a timed call into the package and an untimed check.

    ``check`` returns None when the result is right, else a one-line reason.
    ``known_fault`` names a fault of the package that makes this verdict
    fail today; such a failure is counted but leaves the run correct.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    known_fault: str | None = None


def is_finite_point(x) -> bool:
    return hasattr(x, "path") and hasattr(x, "tail")


def point_length(x):
    return len(x.path) if is_finite_point(x) else float("inf")


def sym_at(x, n: int):
    """The n-th symbol (1-based) of a finite or eventually periodic point."""
    if is_finite_point(x):
        return x.path[n - 1] if n <= len(x.path) else x.tail
    m = len(x.preamble)
    if n <= m:
        return x.preamble[n - 1]
    return x.cycle[(n - m - 1) % len(x.cycle)]


def agreement(x, y, limit: int) -> int:
    """Number of leading coordinates on which x and y agree, up to limit."""
    for i in range(1, limit + 1):
        if sym_at(x, i) != sym_at(y, i):
            return i - 1
    return limit


def spans_contain(spans, k: int) -> bool:
    return any((lo is None or lo <= k) and (hi is None or k <= hi)
               for lo, hi in spans)


def _span_within(inner, outer) -> bool:
    (ilo, ihi), (olo, ohi) = inner, outer
    lo_ok = olo is None or (ilo is not None and ilo >= olo)
    hi_ok = ohi is None or (ihi is not None and ihi <= ohi)
    return lo_ok and hi_ok


def spans_subset(a, b) -> bool:
    """Subset test on canonical span tuples: pairwise disjoint,
    non-adjacent spans, so each span of a lies inside one span of b."""
    return all(any(_span_within(s, t) for t in b) for s in a)


def vertex_set_subset(a, b) -> bool:
    """Subset test on symbolic sets read as {family: spans}."""
    parts = dict(b.entries)
    return all(fam in parts and spans_subset(s.spans, parts[fam].spans)
               for fam, s in a.entries)


def vertex_set_contains(vs, fam: str, k: int) -> bool:
    return any(f == fam and spans_contain(s.spans, k) for f, s in vs.entries)
