"""The reference oracle of evaluation, which reads no table, and the tools
the table tests compare against it with."""

import pytest

from ultrashift import graphs
from ultrashift.codes import MapError, MapPresentation, RuleMap, eval_map
from ultrashift.graphs import MinimalEmitter
from ultrashift.points import (FinitePoint, PeriodicPoint, length, shift,
                               validate_point)


def reference_walk(phi, x):
    """The first image symbols along the orbit of x, one ``symbol_at``
    call a step and no table: walked until a point comes back and then
    once more around the cycle.  (symbols, length of the first walk, step
    at which the point that came back was first seen); an error of
    ``symbol_at`` propagates."""
    syms, seen, cur = [], {}, x
    while cur not in seen:
        seen[cur] = len(syms)
        syms.append(phi.symbol_at(cur))
        cur = shift(cur)
    first, m = len(syms), seen[cur]
    for _ in range(first - m):
        syms.append(phi.symbol_at(cur))
        cur = shift(cur)
    return syms, first, m


def reference_eval(phi, x):
    """The map along the orbit of x by ``reference_walk``, with the image
    built from the symbols and checked as the definition reads.  (image,
    image as printed), or why the map refuses x: ("error", type, message)
    for an error of ``symbol_at``, else "persist" when an emitter symbol
    does not persist over both walks, "target" when the image is no point
    of the target, and "longer" when a finite input is shorter than the
    image's path."""
    try:
        syms, first, m = reference_walk(phi, x)
    except MapError as err:
        return "error", type(err).__name__, str(err)
    tails = [i for i, s in enumerate(syms) if isinstance(s, MinimalEmitter)]
    if tails:
        if any(s != syms[tails[0]] for s in syms[tails[0]:]):
            return "persist"
        image = FinitePoint(tuple(syms[:tails[0]]), syms[tails[0]])
    else:
        image = PeriodicPoint(tuple(syms[:m]), tuple(syms[m:first]))
    if any(not p.startswith("unknown:")
           for p in validate_point(phi.target, image)):
        return "target"
    if tails and length(x) < tails[0]:
        return "longer"
    return image, str(image)


# eval_map's own refusals, by the words of its errors
REFUSALS = {"does not persist": "persist",
            "is not a point of the target shift": "target",
            "image is longer": "longer"}


def outcome(phi, x):
    """eval_map's answer in the terms of ``reference_eval``."""
    try:
        image = eval_map(phi, x)
    except MapError as err:
        return next((kind for words, kind in REFUSALS.items()
                     if words in str(err)),
                    ("error", type(err).__name__, str(err)))
    return image, str(image)


def fresh(phi):
    """The same map with an empty table of its own."""
    if isinstance(phi, RuleMap):
        return RuleMap(phi.source, phi.target, phi.rule, phi.label)
    return MapPresentation(phi.source, phi.target, phi.classes, phi.label)


def asking(phi) -> list:
    """Record the points the map's own ``symbol_at`` is asked for."""
    asked = []
    symbol_at = phi.symbol_at
    phi.symbol_at = lambda y: (asked.append(y), symbol_at(y))[1]
    return asked


# no cap, then tables emptied every third answer
CAPS = pytest.mark.parametrize("cap", [None, 3])


def apply_cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(graphs, "EDGE_MEMO_CAP", cap)
