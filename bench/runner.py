"""The workload process: set-up, the closed verdict loop, and the traced
run.  Started by ``run.py`` with ``--role setup|run|trace``; prints its
result as the last line of standard output."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

from common import Op

perf = time.perf_counter
# a traced run writes its per-function totals here, under the checkout root
TRACE_DIR = ".bench_trace"


def _workload_class(name: str):
    if name == "gsbc-probe":
        from wl_gsbc import GsbcProbe
        return GsbcProbe
    if name == "paper-checks":
        from wl_paper import PaperChecks
        return PaperChecks
    from wl_intake import GraphIntake
    return GraphIntake


def import_package() -> None:
    """Import the whole public surface, so import time is counted once."""
    import ultrashift  # noqa: F401
    import ultrashift.cli  # noqa: F401
    import ultrashift.dsl  # noqa: F401


def timed_setup(args):
    """Import the package and build the workload's inputs; returns the
    workload and the seconds both took."""
    t0 = perf()
    import_package()
    wl = _workload_class(args.workload)(args.seed, args.scale)
    wl.setup()
    return wl, perf() - t0


class RoundResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[Op, str]] = []


def run_round(wl, ops: list[Op], tracer=None) -> RoundResult:
    """Run every verdict once, in order; checks run outside the timing and,
    in a traced run, outside the trace.  A workload's ``begin_round``
    (fresh inputs for the round) runs first, untimed; a traced run records
    it with the set-up, under verdict id -1."""
    begin = getattr(wl, "begin_round", None)
    if begin is not None:
        if tracer is not None:
            tracer.begin_verdict(-1)
        begin()
        if tracer is not None:
            tracer.end_verdict()
    res = RoundResult()
    for vid, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_verdict(vid)
        t = perf()
        try:
            value = op.call()
            err = None
        except Exception as exc:  # a verdict that errors counts as failed
            value, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf() - t
        if tracer is not None:
            tracer.end_verdict()
        if err is None:
            try:
                err = op.check(value)
            except Exception as exc:
                err = f"check could not read the result: " \
                      f"{type(exc).__name__}: {exc}"
        res.latencies.append(dt)
        if err is not None:
            res.failures.append((op, err))
    return res


def _report_failures(failures) -> bool:
    """Print each distinct failure once; True when all are known faults."""
    seen = set()
    correct = True
    for op, err in failures:
        if op.known_fault is None:
            correct = False
        if op.label in seen:
            continue
        seen.add(op.label)
        tag = f"known fault ({op.known_fault})" if op.known_fault else \
            "UNEXPECTED"
        print(f"failed verdict [{tag}] {op.label}: {err}", file=sys.stderr)
    return correct


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of the values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def role_run(args) -> dict:
    """Whole rounds of the same verdicts for about ``args.seconds``.  Each
    verdict's time is its median over the rounds: on a shared host other
    work slows this process by a third or more for most of a run and lifts
    off only for moments, so a verdict's median follows the machine's usual
    speed, where its best time depends on whether a round caught one of
    those moments (README, Machine noise)."""
    wl, setup_s = timed_setup(args)
    ops = wl.ops()
    samples: list[list[float]] = [[] for _ in ops]
    failures = []
    rounds = 0
    start = perf()
    while True:
        t = perf()
        res = run_round(wl, ops)
        round_s = perf() - t
        rounds += 1
        for acc, dt in zip(samples, res.latencies):
            acc.append(dt)
        failures += res.failures
        # only whole rounds: start another only if it should end in time
        if perf() - start + round_s > args.seconds:
            break
    correct = _report_failures(failures)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    typical = [statistics.median(acc) for acc in samples]
    print(f"{args.workload}: {rounds} round(s) of {len(ops)} verdicts, "
          f"{perf() - start:.2f} s in the loop, median-of-rounds work "
          f"{sum(typical):.2f} s")
    return {
        "setup_s": setup_s,
        "verdicts_per_s": len(ops) / sum(typical),
        "verdict_p50_ms": statistics.median(typical) * 1e3,
        "verdict_p90_ms": _quantile(typical, 90) * 1e3,
        "peak_rss_mb": peak_mb,
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "correct": correct,
    }


def role_trace(args) -> dict:
    import spans

    import_package()
    cls = _workload_class(args.workload)
    scale = args.scale * cls.trace_scale
    wl = cls(args.seed, scale)
    wl.setup()
    ops = wl.ops()
    plain = run_round(wl, ops)
    plain_s = sum(plain.latencies)
    del wl, ops

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_verdict(-1)  # set-up spans carry verdict id -1
        wl = cls(args.seed, scale)
        wl.setup()
        tracer.end_verdict()
        ops = wl.ops()
        traced = run_round(wl, ops, tracer)
        traced_s = sum(traced.latencies)
    finally:
        tracer.uninstall()
    correct = _report_failures(plain.failures + traced.failures)
    metrics, table = tracer.metrics(len(ops), traced_s / plain_s)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload}: traced set-up and {len(ops)} verdicts; "
          f"{tracer.span_count()} spans; untraced {plain_s:.2f} s, "
          f"traced {traced_s:.2f} s; peak RSS {peak_mb:.0f} MB")
    for line in table:
        print(line)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "verdicts": len(ops), "spans": tracer.span_count(),
                   "metrics": metrics, "bases": tracer.bases,
                   "functions": tracer.per_function}, fh, indent=1)
    print(f"per-function totals written to {path}")
    return {
        "attempted": len(ops) * 2,
        "failed": len(plain.failures) + len(traced.failures),
        "correct": correct,
        "metrics": metrics,
    }


def child_main(args) -> int:
    if args.role == "setup":
        out = {"setup_s": timed_setup(args)[1]}
    elif args.role == "run":
        out = role_run(args)
    else:
        out = role_trace(args)
    print(json.dumps(out))
    return 0
