"""Workload ``paper-checks``: the paper's four examples, as a user meets
them through the library and the command line.

Each round builds the fixtures of examples a-d afresh, four times, so graph
caches start cold, and runs every checker of their expected-verdict tables
on each set (the sample pools come from the run's seed), then ``cli.main``
in-process on the examples' documents in ``docs/``.  The run's seed also
fixes the order of the verdicts within a round.

Every verdict is compared with the paper's answer, written down here, and
every "fails" witness is re-checked with this module's own reading of the
example maps, which never calls the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from common import Op, agreement, is_finite_point, point_length, sym_at

DOCS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "docs")
HOLDS, FAILS, REFUTED = "holds", "fails", "refuted"
POOL_SIZE = 40
WINDOW = 6
# the tables run this many times a round, each on fresh fixtures and pools,
# so a round holds over 100 verdicts and p90 has ten beyond it
TABLE_REPEATS = 4

CSC_FAULT = ("check csc passes example a's discontinuous map: items ii and "
             "iii are only checked at zero-length source points")


# -- the example maps, read apart from the package ------------------------


def key(sym):
    """Comparable form of a symbol: (family, index) for an edge, or
    ("tail", spans by family) for an emitter."""
    if hasattr(sym, "family"):
        return sym.family, sym.index
    return "tail", tuple((fam, s.spans) for fam, s in sym.vertices.entries)


def tail(fam: str, lo, hi):
    return "tail", ((fam, ((lo, hi),)),)


TAIL_W0 = tail("w", 0, 0)      # the emitter of the one-vertex graphs
TAIL_V0 = tail("v", 0, 0)      # B, the emitter of example a's target
TAIL_P = tail("w", None, -1)   # P and Q, the emitters of example d's H
TAIL_Q = tail("w", 1, None)


def _run(x, offset: int, family: str, index: int):
    """Length of the run of edge family[index] starting at coordinate
    offset+1, and the symbol that ends it; (None, None) if it never ends."""
    limit = offset + (len(x.path) + 1 if is_finite_point(x)
                      else len(x.preamble) + len(x.cycle) + 1)
    i = 0
    while offset + i < limit:
        s = sym_at(x, offset + i + 1)
        if key(s) != (family, index):
            return i, s
        i += 1
    if is_finite_point(x):
        return i, sym_at(x, offset + i + 1)
    return None, None


def first_a(x, offset: int = 0):
    """Example a: a run of d then f[j] maps to e[j]; a run of d that ends
    in the tail or never ends maps to the tail B."""
    run, end = _run(x, offset, "d", 0)
    if run is None or not hasattr(end, "family"):
        return TAIL_V0
    return "e", end.index


def first_b(x, offset: int = 0):
    """Example b: n[k] with k > 0 stays; a run of m zeros then another edge
    maps to n[m-1]; the tail and an endless zero run map to the tail."""
    c = sym_at(x, offset + 1)
    if not hasattr(c, "family"):
        return TAIL_W0
    if c.index != 0:
        return "n", c.index
    run, _ = _run(x, offset, "n", 0)
    return TAIL_W0 if run is None else ("n", run - 1)


def first_c_infinite(x, offset: int = 0):
    """Example c, second map: d and the tail go to e[1], f[k] to e[k+1]."""
    c = sym_at(x, offset + 1)
    if hasattr(c, "family") and c.family == "f":
        return "e", c.index + 1
    return "e", 1


def first_d(x, offset: int = 0):
    """Example d: e[k] with k > 0 goes to f[k]; a run of m copies of e[0]
    then another symbol goes to f[-m]; an endless run to P; the tail to Q."""
    c = sym_at(x, offset + 1)
    if not hasattr(c, "family"):
        return TAIL_Q
    if c.index != 0:
        return "f", c.index
    run, _ = _run(x, offset, "e", 0)
    return TAIL_P if run is None else ("f", -run)


def image_agrees(img, x, first, depth: int = 6) -> bool:
    return all(key(sym_at(img, i)) == first(x, i - 1)
               for i in range(1, depth + 1))


# -- witness re-checks ------------------------------------------------------


def recheck_probe_failure(v, x, first):
    w = v.witness
    terms, images, target = w["terms"], w["images"], w["target"]
    if not image_agrees(target, x, first):
        return f"probe target {target} is not the image of {x}"
    for t, img in zip(terms, images):
        if not image_agrees(img, t, first):
            return f"witness image {img} is not the image of {t}"
    if point_length(x) == float("inf"):
        for n, t in enumerate(terms, 1):
            if agreement(t, x, n) < n:
                return f"witness term {n} does not approach {x}"
    else:
        k = len(x.path)
        nxt = [key(sym_at(t, k + 1)) for t in terms]
        if any(agreement(t, x, k) < k for t in terms) or \
                len(set(nxt)) != len(nxt) or \
                any(s[0] == "tail" for s in nxt):
            return "witness terms do not escape every finite excluded set"
    _, stuck, condition = w["stuck"]
    if point_length(target) == float("inf"):
        depth = int(condition.rsplit(" ", 1)[-1])
        if agreement(stuck, target, depth) >= depth:
            return f"stuck image agrees with the target to depth {depth}"
    else:
        k = len(target.path)
        edges = {key(sym_at(img, k + 1)) for img in images + [stuck]}
        if len(edges) != 1 or next(iter(edges))[0] == "tail" or \
                any(agreement(img, target, k) < k for img in images):
            return "images are not stuck on one edge after the target path"
    return None


def recheck_refutation(result, x, member):
    if result.status != REFUTED:
        return f"refutation is {result.status}, the paper refutes it"
    windows = sorted(row.window for row in result.rows)
    want = [(k, l) for k in range(1, WINDOW + 1) for l in range(k, WINDOW + 1)]
    if windows != want:
        return f"refutation windows {windows} are not all of 1..{WINDOW}"
    if not member(x):
        return f"{x} is not in the set it should refute"
    for row in result.rows:
        k, l = row.window
        if any(key(sym_at(row.witness, i)) != key(sym_at(x, i))
               for i in range(k, l + 1)):
            return f"window witness {row.witness} leaves the window {k}..{l}"
        if member(row.witness):
            return f"window witness {row.witness} lies inside the set"
    return None


def recheck_length_failure(v, first):
    x = v.witness
    if point_length(x) == 0 or first(x)[0] != "tail":
        return f"witness {x} is not a positive-length point with an " \
               "emitter as first image symbol"
    return None


def recheck_iii_failure(v):
    w = v.witness
    if isinstance(w, dict):
        point, step, sym = w["point"], w["step"], w["symbol"]
        if not hasattr(sym_at(point, 1), "family"):
            return "the escaping point does not lie in the cylinder"
        if first_c_infinite(point, step) != key(sym) or key(sym) == ("e", 1):
            return f"{point} does not leave the class of e[1] at step {step}"
        return None
    if first_c_infinite(w) == ("e", 1):
        return f"tail point {w} does not leave the class of e[1]"
    return None


def expect(status, recheck=None):
    """A check: the verdict's status must be the paper's; a failure's
    witness must pass the re-check."""
    def check(v):
        if v.status != status:
            return f"verdict {v.status}, the paper says {status}"
        return recheck(v) if recheck is not None else None
    return check


# -- command-line verdicts ----------------------------------------------------


def run_cli(argv):
    from ultrashift import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--format", "json"])
    return code, out.getvalue()


def expect_cli(code_ok, record_check=None):
    def check(result):
        code, text = result
        if not code_ok(code):
            return f"exit code {code}"
        records = json.loads(text)["records"]
        return record_check(records) if record_check is not None else None
    return check


def all_hold(records):
    bad = [r["check"] for r in records if r["status"] != HOLDS]
    return f"records not holding: {bad}" if bad else None


def details_are(*want):
    def check(records):
        got = sorted(r["detail"].split(" ")[0] for r in records
                     if r["check"].startswith("minimal-emitter"))
        return None if got == sorted(want) else f"minimal emitters {got}"
    return check


def refute_report(records):
    if [r["status"] for r in records] != [HOLDS, HOLDS] or \
            records[0]["witness"] != "21 window witnesses":
        return f"refute-fd report {records}"
    return None


def image_report(records):
    # the image of d d (f[3])* under example a's map, coordinate by
    # coordinate from first_a: every shift still reaches f[3]
    want = "prefix: e[3] e[3] e[3] | resolved: ((e[3])* ...)"
    return None if records[0]["detail"] == want else \
        f"eval detail {records[0]['detail']!r}"


def csc_fails_iii(records):
    status = {r["check"]: r["status"] for r in records}
    return None if status.get("csc-item-iii") == FAILS else \
        f"csc-item-iii is {status.get('csc-item-iii')}"


def doc(name: str) -> str:
    return os.path.join(DOCS, f"example_{name}.ug")


def cli_ops() -> list[Op]:
    a, b, c, d = (doc(n) for n in "abcd")
    zero_ok = (lambda code: code == 0)
    nonzero = (lambda code: code != 0)
    specs = [
        (["check", "commute", a, "--map", "Phi"], zero_ok, all_hold, None),
        # the map is discontinuous at the all-d point, so it is no
        # continuous shift commuting map and check csc must not pass it
        (["check", "csc", a, "--map", "Phi"], nonzero, None, CSC_FAULT),
        (["refute-fd", a, "--oracle", "a.C_B", "--point", "target",
          "--graph", "G", "--max-window", str(WINDOW), "--audit"],
         zero_ok, refute_report, None),
        (["converge", a, "--seq", "a.dn_f1", "--target", "target",
          "--graph", "G"], zero_ok, all_hold, None),
        (["eval", a, "--map", "Phi", "--point", "inf: d d (f[3])*",
          "--depth", "6"], zero_ok, image_report, None),
        (["emitters", a, "--graph", "G", "--minimal"], zero_ok,
         details_are("{w[0]}"), None),
        (["refute-fd", b, "--oracle", "b.C_A", "--point", "all_zero",
          "--max-window", str(WINDOW), "--audit"], zero_ok, refute_report,
         None),
        (["converge", b, "--seq", "b.zn_one", "--target", "all_zero"],
         zero_ok, all_hold, None),
        (["check", "commute", c, "--map", "PhiInfinite"], zero_ok, all_hold,
         None),
        (["check", "length-preserving", c, "--map", "PhiFinite"], zero_ok,
         all_hold, None),
        (["check", "csc", c, "--map", "PhiInfinite"], nonzero,
         csc_fails_iii, None),
        (["check", "commute", d, "--map", "PhiInv"], zero_ok, all_hold,
         None),
        (["emitters", d, "--graph", "H", "--minimal"], zero_ok,
         details_are("{w[<=-1]}", "{w[>=1]}"), None),
        (["refute-fd", d, "--oracle", "d.C_P", "--point", "all_e0",
          "--graph", "G", "--max-window", str(WINDOW), "--audit"],
         zero_ok, refute_report, None),
        (["converge", d, "--seq", "d.e0n_e2", "--target", "all_e0",
          "--graph", "G"], zero_ok, all_hold, None),
    ]
    specs += [(["fixture", "run", n], zero_ok, all_hold, None)
              for n in "abcd"]
    ops = []
    for argv, code_ok, rec_check, fault in specs:
        label = "cli " + " ".join(os.path.basename(a) for a in argv)
        ops.append(Op(label, lambda argv=argv: run_cli(argv),
                      expect_cli(code_ok, rec_check), fault))
    return ops


# -- the workload ---------------------------------------------------------------


class PaperChecks:
    trace_scale = 1.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        # filled in place by begin_round, read by the verdicts' closures
        self.fx = [{} for _ in range(TABLE_REPEATS)]
        self.pools = [{} for _ in range(TABLE_REPEATS)]

    def setup(self) -> None:
        from ultrashift import corpus

        self.order = random.Random(self.seed)
        self.table_keys = {n: [e.key for e in corpus.build_fixture(n)
                               .expectations] for n in "abcd"}

    def begin_round(self) -> None:
        """Fresh fixtures and sample pools, outside the timed verdicts."""
        from ultrashift import corpus, sampling

        for rep, (fxs, pools) in enumerate(zip(self.fx, self.pools)):
            pool_seed = self.seed * TABLE_REPEATS + rep
            for n in "abcd":
                fxs[n] = corpus.build_fixture(n)
                pools[n] = fxs[n].sample_pool(POOL_SIZE, seed=pool_seed)
            pools["d-inverse"] = sampling.point_pool(
                fxs["d"].target, random.Random(pool_seed), POOL_SIZE)

    def ops(self) -> list[Op]:
        ops = [op for rep in range(TABLE_REPEATS)
               for op in self.library_ops(rep)] + cli_ops()
        self.order.shuffle(ops)
        return ops

    def library_ops(self, rep: int) -> list[Op]:
        """One verdict per entry of the fixtures' expected-verdict tables,
        each checked against the paper's answer written here."""
        from ultrashift import codes, definable

        fx, pools = self.fx[rep], self.pools[rep]
        member_a = lambda x: first_a(x) == TAIL_V0  # noqa: E731
        member_b = lambda x: first_b(x) == TAIL_W0  # noqa: E731
        member_d = lambda x: first_d(x) == TAIL_P  # noqa: E731
        table = {
            "a": {
                "partition": (lambda: codes.validate_partition(
                    fx["a"].phi, pools["a"]), expect(HOLDS)),
                "commuting": (lambda: codes.check_commuting(
                    fx["a"].phi, pools["a"]), expect(HOLDS)),
                "csc-item-i": (lambda: codes.check_csc_item_i(fx["a"].phi),
                               expect(HOLDS)),
                "probe-continuity@all_d": (
                    lambda: codes.probe_continuity(
                        fx["a"].phi, fx["a"].points["all_d"]),
                    expect(FAILS, lambda v: recheck_probe_failure(
                        v, fx["a"].points["all_d"], first_a))),
                "refute-fd(C_B)": (
                    lambda: definable.refute_finitely_defined(
                        fx["a"].source, fx["a"].oracles["C_B"],
                        fx["a"].points["all_d"], WINDOW),
                    lambda r: recheck_refutation(
                        r, fx["a"].points["all_d"], member_a)),
            },
            "b": {
                "commuting": (lambda: codes.check_commuting(
                    fx["b"].phi, pools["b"]), expect(HOLDS)),
                "probe-continuity@all_zero": (
                    lambda: codes.probe_continuity(
                        fx["b"].phi, fx["b"].points["all_zero"]),
                    expect(HOLDS)),
                "refute-fd(C_A)": (
                    lambda: definable.refute_finitely_defined(
                        fx["b"].source, fx["b"].oracles["C_A"],
                        fx["b"].points["all_zero"], WINDOW),
                    lambda r: recheck_refutation(
                        r, fx["b"].points["all_zero"], member_b)),
                "length-preserving": (
                    lambda: codes.check_length_preserving(
                        fx["b"].phi, pools["b"]),
                    expect(FAILS, lambda v: recheck_length_failure(
                        v, first_b))),
            },
            "c": {
                "partition(finite)": (lambda: codes.validate_partition(
                    fx["c"].maps["phi_finite"], pools["c"]), expect(HOLDS)),
                "partition(infinite)": (lambda: codes.validate_partition(
                    fx["c"].maps["phi_infinite"], pools["c"]),
                    expect(HOLDS)),
                "commuting(finite)": (lambda: codes.check_commuting(
                    fx["c"].maps["phi_finite"], pools["c"]), expect(HOLDS)),
                "csc-item-i(finite)": (lambda: codes.check_csc_item_i(
                    fx["c"].maps["phi_finite"]), expect(HOLDS)),
                "length-preserving(finite)": (
                    lambda: codes.check_length_preserving(
                        fx["c"].maps["phi_finite"], pools["c"]),
                    expect(HOLDS)),
                "csc-item-iii(infinite)": (
                    lambda: codes.check_csc_item_iii(
                        fx["c"].maps["phi_infinite"],
                        fx["c"].points["zero"].tail, M=2),
                    expect(FAILS, recheck_iii_failure)),
                "probe-continuity@zero(infinite)": (
                    lambda: codes.probe_continuity(
                        fx["c"].maps["phi_infinite"], fx["c"].points["zero"]),
                    expect(FAILS, lambda v: recheck_probe_failure(
                        v, fx["c"].points["zero"], first_c_infinite))),
            },
            "d": {
                "commuting": (lambda: codes.check_commuting(
                    fx["d"].phi, pools["d"]), expect(HOLDS)),
                "partition(inverse)": (lambda: codes.validate_partition(
                    fx["d"].maps["phi_inv"], pools["d-inverse"]),
                    expect(HOLDS)),
                "csc-item-i(inverse)": (lambda: codes.check_csc_item_i(
                    fx["d"].maps["phi_inv"]), expect(HOLDS)),
                "inverse-identity": (
                    lambda: _table_entry(fx["d"], "inverse-identity").run(),
                    expect(HOLDS)),
                "refute-fd(C_P)": (
                    lambda: definable.refute_finitely_defined(
                        fx["d"].source, fx["d"].oracles["C_P"],
                        fx["d"].points["all_e0"], WINDOW),
                    lambda r: recheck_refutation(
                        r, fx["d"].points["all_e0"], member_d)),
                "length-preserving": (
                    lambda: codes.check_length_preserving(
                        fx["d"].phi, pools["d"]),
                    expect(FAILS, lambda v: recheck_length_failure(
                        v, first_d))),
                "probe-continuity@all_e0": (
                    lambda: codes.probe_continuity(
                        fx["d"].phi, fx["d"].points["all_e0"]),
                    expect(HOLDS)),
            },
        }
        ops = []
        for n, entries in table.items():
            if sorted(entries) != sorted(self.table_keys[n]):
                raise RuntimeError(
                    f"fixture {n}'s table {self.table_keys[n]} no longer "
                    f"matches the benchmark's {sorted(entries)}")
            for k, (call, check) in entries.items():
                ops.append(Op(f"{n}: {k} (pools {rep})", call, check))
        return ops


def _table_entry(fx, entry_key: str):
    return next(e for e in fx.expectations if e.key == entry_key)
