"""Command-line driver.

Commands parse a document, run checks, and emit human-readable or JSON
reports (one record per check, bounds always echoed).  Exit codes: 0 when
everything holds or is not applicable, 1 on any failure, 2 on any unknown,
3 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import corpus, dsl, sampling
from .codes import (
    MapError,
    PartitionError,
    check_commuting,
    check_csc_item_i,
    check_csc_item_ii,
    check_csc_item_iii,
    check_genchl_iia,
    check_genchl_iib,
    check_length_preserving,
    eval_map,
    validate_partition,
)
from .definable import (AuditError, SetOracle, audit_refutation,
                        refute_finitely_defined)
from .graphs import EdgeRef, MinimalEmitter, validate_ultragraph
from .intsets import SymbolicSet
from .paths import PathError, enumerate_blocks
from .points import (
    PointError,
    RepeatFamily,
    check_convergence,
    coordinate,
    hard_problems,
    length,
    orbit_closure,
    prefix,
)
from .verdicts import FAILS, HOLDS, NOT_APPLICABLE, UNKNOWN, Verdict

EXIT_OK, EXIT_FAILS, EXIT_UNKNOWN, EXIT_USAGE = 0, 1, 2, 3
SCHEMA_VERSION = 1
# the status of a record whose checker raised one of _PACKAGE_ERRORS
ERROR = "error"
# the package's own errors (PartitionError is a MapError); anything else
# is a fault of the program and surfaces as a traceback
_PACKAGE_ERRORS = (MapError, PointError, PathError)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    """The parsed document and the registry it was parsed against."""
    reg = corpus.registry()
    return dsl.parse(_read(path), reg), reg


class Report:
    def __init__(self, command: str):
        self.command = command
        self.records: list[dict] = []

    def add(self, verdict: Verdict) -> None:
        self.records.append(verdict.to_record())

    def exit_code(self) -> int:
        statuses = {r["status"] for r in self.records}
        if statuses & {FAILS, ERROR}:
            return EXIT_FAILS
        if UNKNOWN in statuses:
            return EXIT_UNKNOWN
        return EXIT_OK

    def emit(self, fmt: str) -> None:
        if fmt == "json":
            print(json.dumps({"schema": SCHEMA_VERSION,
                              "command": self.command,
                              "records": self.records}, indent=2))
            return
        for r in self.records:
            line = f"[{r['status']:>14}] {r['check']}"
            if r.get("detail"):
                line += f" | {r['detail']}"
            if r.get("witness"):
                line += f" | witness: {r['witness']}"
            if r.get("bounds"):
                bounds = ", ".join(f"{k}={v}" for k, v in r["bounds"].items())
                line += f" | bounds: {bounds}"
            print(line)


def _graph_from(doc, name: str | None):
    if name is None:
        if len(doc.graphs) == 1:
            return next(iter(doc.graphs.values()))
        raise SystemExit("error: several graphs defined; use --graph")
    if name not in doc.graphs:
        raise SystemExit(f"error: no ultragraph named {name!r}")
    return doc.graphs[name]


def _map_from(doc, name: str):
    if name not in doc.maps:
        raise SystemExit(f"error: no map named {name!r}")
    return doc.maps[name]


def _point_from(doc, g, text: str):
    if text in doc.points:
        gname, pt = doc.points[text]
        if gname != g.name:
            raise SystemExit(f"error: {text!r} is a point of {gname}, "
                             f"not of {g.name}")
        return pt
    return dsl.parse_point_literal(g, text)


def cmd_validate(args) -> Report:
    doc, _ = _load(args.file)
    report = Report("validate")
    for name, g in doc.graphs.items():
        res = validate_ultragraph(g)
        detail = []
        if not res.sinks.is_empty():
            detail.append(f"sinks: {res.sinks}")
        if not res.empty_range_edges.is_empty():
            detail.append(f"empty ranges: {res.empty_range_edges}")
        detail.extend(res.warnings)
        report.add(Verdict(f"validate({name})",
                           HOLDS if res.valid else FAILS,
                           "; ".join(detail) or "no sinks, no empty ranges"))
    if not doc.graphs:
        report.add(Verdict("validate", NOT_APPLICABLE, "no graphs defined"))
    return report


def cmd_emitters(args) -> Report:
    doc, _ = _load(args.file)
    g = _graph_from(doc, args.graph)
    report = Report("emitters")
    verts = g.infinite_emitter_vertices()
    report.add(Verdict(f"infinite-emitter-vertices({g.name})", HOLDS,
                       str(verts) if not verts.is_empty() else "none"))
    if args.minimal:
        emitters, complete = g.minimal_infinite_emitters()
        for m in emitters:
            report.add(Verdict(f"minimal-emitter({g.name})", HOLDS,
                               f"{m.vertices} [{m.certificate}]"))
        if not emitters:
            report.add(Verdict(f"minimal-emitter({g.name})", NOT_APPLICABLE,
                               "none"))
        if not complete:
            report.add(Verdict(f"minimal-emitter({g.name})", UNKNOWN,
                               "closure did not saturate; list may be "
                               "incomplete"))
    return report


def cmd_blocks(args) -> Report:
    doc, _ = _load(args.file)
    g = _graph_from(doc, args.graph)
    report = Report("blocks")
    blocks = enumerate_blocks(g, args.length, args.index_bound)
    for b in blocks:
        report.add(Verdict(f"block({g.name})", HOLDS, str(b),
                           bounds={"n": args.length,
                                   "index_bound": args.index_bound}))
    report.add(Verdict("blocks-total", HOLDS, f"{len(blocks)} blocks",
                       bounds={"n": args.length,
                               "index_bound": args.index_bound}))
    return report


def cmd_eval(args) -> Report:
    doc, _ = _load(args.file)
    phi = _map_from(doc, args.map)
    x = _point_from(doc, phi.source, args.point)
    report = Report("eval")
    try:
        img = eval_map(phi, x)
        head = prefix(img, min(args.depth, orbit_closure(x)[1]))
        detail = f"prefix: {' '.join(map(str, head))} | resolved: {img}"
        report.add(Verdict("eval", HOLDS, detail,
                           bounds={"depth": args.depth}))
    except MapError as err:
        report.add(Verdict("eval", FAILS, str(err), x))
    except _PACKAGE_ERRORS as err:
        report.add(_error("eval", err))
    return report


def _error(check: str, err: Exception) -> Verdict:
    return Verdict(check, ERROR, f"{type(err).__name__}: {err}")


def _check_verdicts(kind: str, phi):
    """The verdicts of one check kind, in order, each as it is reached;
    the kinds that read a sample pool draw one 40-point pool, seed 0."""
    if kind in ("commute", "length-preserving"):
        samples = sampling.point_pool(phi.source, random.Random(0))
    if kind == "commute":
        yield validate_partition(phi, samples)
        yield check_commuting(phi, samples)
    elif kind in ("csc", "genchl"):
        yield check_csc_item_i(phi)
        for x0 in sampling.zero_points(phi.source):
            img = coordinate(eval_map(phi, x0), 1)
            if isinstance(img, MinimalEmitter):
                if kind == "csc":
                    yield check_csc_item_ii(phi, x0, SymbolicSet.empty())
                else:
                    yield check_genchl_iia(phi, x0)
                    yield check_genchl_iib(phi, x0)
            yield check_csc_item_iii(phi, x0.tail)
    elif kind == "length-preserving":
        yield check_length_preserving(phi, samples)
    else:
        raise SystemExit(f"error: unknown check kind {kind!r}")


def cmd_check(args) -> Report:
    doc, _ = _load(args.file)
    phi = _map_from(doc, args.map)
    report = Report(f"check {args.kind}")
    verdicts = []
    try:
        for v in _check_verdicts(args.kind, phi):
            verdicts.append(v)
    except _PACKAGE_ERRORS as err:
        verdicts.append(_error(f"check {args.kind}", err))
    for v in verdicts:
        report.add(v)
    if args.audit:
        for v in verdicts:
            report.add(_audit(phi, v))
    return report


def _audit(phi, v: Verdict) -> Verdict:
    """Re-check a fails witness through the relevant operation."""
    name = f"audit({v.check})"
    if v.status != FAILS:
        return Verdict(name, NOT_APPLICABLE, "only failures carry witnesses")
    try:
        if v.check == "partition":
            try:
                phi.symbol_at(v.witness)
                return Verdict(name, FAILS, "witness no longer violates")
            except PartitionError:
                return Verdict(name, HOLDS, "partition violation reproduced")
        if v.check == "length-preserving":
            sym = phi.symbol_at(v.witness)
            ok = isinstance(sym, MinimalEmitter) and length(v.witness) != 0
            return Verdict(name, HOLDS if ok else FAILS,
                           "witness re-checked" if ok else "mismatch")
        if v.check in ("csc-item-ii", "genchl-iia", "genchl-iib"):
            return _audit_escape(phi, name, v.witness)
        return Verdict(name, UNKNOWN, "no audit hook for this check")
    except _PACKAGE_ERRORS as err:
        return Verdict(name, UNKNOWN, f"audit error: {err}")


def _audit_escape(phi, name: str, w: dict) -> Verdict:
    """Re-check an escape witness: every example is a point of the source
    through the prefix, on an edge of the escaping family that no other
    example takes, and the map gives it the recorded first symbol."""
    n, taken = len(w["prefix"]), set()
    for x, sym in w["examples"]:
        e = coordinate(x, n + 1)
        if prefix(x, n) != w["prefix"] or hard_problems(phi.source, x) or \
                not isinstance(e, EdgeRef) or e in taken or \
                not w["escaping-family"].contains(*e) or \
                phi.symbol_at(x) != sym:
            return Verdict(name, FAILS, f"example {x} does not re-check")
        taken.add(e)
    if not taken:
        return Verdict(name, FAILS, "the witness holds no example")
    return Verdict(name, HOLDS, f"{len(taken)} escaping points re-checked "
                                "on distinct extension edges")


def cmd_refute_fd(args) -> Report:
    doc, reg = _load(args.file)
    if args.oracle not in reg or not isinstance(reg[args.oracle], SetOracle):
        raise SystemExit(f"error: no registered oracle named {args.oracle!r}")
    oracle = reg[args.oracle]
    g = _graph_from(doc, args.graph)
    x = _point_from(doc, g, args.point)
    report = Report("refute-fd")
    check = f"refute-fd({args.oracle})"
    try:
        result = refute_finitely_defined(g, oracle, x, args.max_window)
    except _PACKAGE_ERRORS as err:
        report.add(_error(check, err))
        return report
    status = HOLDS if result.status == "refuted" else UNKNOWN
    detail = result.claim if result.status == "refuted" else \
        f"stuck windows: {result.stuck}"
    report.add(Verdict(check, status, detail,
                       f"{len(result.rows)} window witnesses",
                       bounds={"max_window": args.max_window}))
    if args.audit and result.status == "refuted":
        try:
            audit_refutation(g, oracle, x, result)
            report.add(Verdict("audit(refute-fd)", HOLDS,
                               "all witnesses re-checked"))
        except AuditError as err:
            report.add(Verdict("audit(refute-fd)", FAILS, str(err)))
    return report


def cmd_converge(args) -> Report:
    doc, reg = _load(args.file)
    if args.seq not in reg or not isinstance(reg[args.seq], RepeatFamily):
        raise SystemExit(f"error: no registered sequence named {args.seq!r}")
    seq = reg[args.seq]
    g = _graph_from(doc, args.graph)
    target = _point_from(doc, g, args.target)
    # the terms block^1 + tail and block^2 + tail hold every consecutive
    # pair of any term: in the block, across its wrap, into the tail and
    # in the tail
    for n in (1, 2):
        problems = hard_problems(g, seq.at(n))
        if problems:
            raise SystemExit(f"error: term {n} of {args.seq!r} is not a "
                             f"point of {g.name}: {problems[0]}")
    report = Report("converge")
    try:
        verdict = check_convergence(g, seq, target)
    except _PACKAGE_ERRORS as err:
        report.add(_error(f"converge({args.seq})", err))
        return report
    verdict.check = f"converge({args.seq})"
    report.add(verdict)
    return report


def cmd_fixture(args) -> Report:
    report = Report(f"fixture run {args.name}")
    for v in corpus.run_fixture(args.name):
        report.add(v)
    return report


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    positive, natural = _int_at_least(1), _int_at_least(0)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--audit", action="store_true",
                        help="re-check failure witnesses")
    ap = argparse.ArgumentParser(
        prog="ultrashift",
        description="ultragraph shift spaces: set algebra, topology, and "
                    "sliding block code checkers",
        parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check graphs for sinks and empty ranges")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("emitters", parents=[common],
                       help="infinite emitters of a graph")
    p.add_argument("file")
    p.add_argument("--graph")
    p.add_argument("--minimal", action="store_true")
    p.set_defaults(fn=cmd_emitters)

    p = sub.add_parser("blocks", parents=[common],
                       help="enumerate language blocks")
    p.add_argument("file")
    p.add_argument("--graph")
    p.add_argument("-n", "--length", type=positive, required=True)
    p.add_argument("--index-bound", type=natural, default=4)
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("eval", parents=[common],
                       help="apply a map to a point")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--depth", type=positive, default=12,
                   help="symbols of the image's prefix to print")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", parents=[common],
                       help="run checker suites on a map")
    p.add_argument("kind", choices=["commute", "csc", "genchl",
                                    "length-preserving"])
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("refute-fd", parents=[common],
                       help="refute finite definedness of a registered "
                            "oracle set")
    p.add_argument("file")
    p.add_argument("--oracle", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--graph")
    p.add_argument("--max-window", type=positive, default=6)
    p.set_defaults(fn=cmd_refute_fd)

    p = sub.add_parser("converge", parents=[common],
                       help="check a registered sequence against a target "
                            "point")
    p.add_argument("file")
    p.add_argument("--seq", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--graph")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("fixture", parents=[common],
                       help="run a built-in fixture")
    p.add_argument("action", choices=["run"])
    p.add_argument("name", choices=["a", "b", "c", "d"])
    p.set_defaults(fn=cmd_fixture)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0,) else 0
    try:
        report = args.fn(args)
    except dsl.ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    report.emit(args.format)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
