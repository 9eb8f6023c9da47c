"""Continuity probe verdicts pinned in full.

``probe_verdicts.json`` holds the record of every probe below: status,
detail, witness as printed, exact and bounds, or the error a probe raised.
A change that claims to keep every verdict must leave them all equal.  To
re-pin after a change that means to alter verdicts, run from the
repository root:

    PYTHONPATH=src python tests/test_verdict_pins.py
"""

import json
import pathlib
import random

from helpers_random import identity_map, mirror_map, random_family_graph
from helpers_maps import index_shift_map
from ultrashift import sampling
from ultrashift.codes import MapError, ProbeBounds, probe_continuity
from ultrashift.corpus import build_fixture
from ultrashift.points import ConvergenceBounds

PINS = pathlib.Path(__file__).with_name("probe_verdicts.json")
# the bounds of acceptance criterion 8, for the random maps
CRITERION_8 = ProbeBounds(n_max=8, conv=ConvergenceBounds(m_max=4, n_max=12))


def _probes():
    """(label, map, point, bounds): every map of fixtures a-d on its source
    at each named point, with the default bounds, then mirror and identity
    maps of seeded random family graphs on a seeded pool, and index shift
    maps, whose images are often no points of their target."""
    for name in "abcd":
        fx = build_fixture(name)
        for key, phi in fx.maps.items():
            if phi.source is not fx.source:
                continue
            for pname, x in fx.points.items():
                yield f"{name}.{key} at {pname}", phi, x, ProbeBounds()
    rng = random.Random(97)
    for tag in range(6):
        g = random_family_graph(rng, tag)
        pool = sampling.point_pool(g, random.Random(tag), 10)
        for phi in (mirror_map(g), identity_map(g), index_shift_map(g)):
            for i, x in enumerate(pool):
                yield f"{phi.label} at {i}: {x}", phi, x, CRITERION_8


def _record(phi, x, bounds) -> dict:
    try:
        v = probe_continuity(phi, x, bounds, random.Random(0))
    except MapError as err:  # pinned as well: a probe must raise alike
        return {"raises": f"{type(err).__name__}: {err}"}
    return {"status": v.status, "detail": v.detail,
            "witness": None if v.witness is None else str(v.witness),
            "exact": v.exact,
            "bounds": {k: str(b) for k, b in v.bounds.items()}}


def _records() -> dict:
    return {label: _record(phi, x, bounds)
            for label, phi, x, bounds in _probes()}


def test_probe_verdicts_equal_their_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = _records()
    assert list(got) == list(pinned)
    for label, record in got.items():
        assert record == pinned[label], label


if __name__ == "__main__":
    PINS.write_text(json.dumps(_records(), indent=1) + "\n",
                    encoding="utf-8")
