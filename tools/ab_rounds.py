"""Compare two checkouts on a benchmark workload, in fresh process pairs.

Each pair starts one worker process per checkout, both with the pair's own
``PYTHONHASHSEED``, sets the workload up in each, and lets the two take
whole rounds in turn (A B B A A B ...), so that the host's slow and fast
moments fall on both sides alike.  A worker's figure is verdicts per
second as ``bench/run.py`` reads it: the verdict count over the sum of
each verdict's median time across the worker's rounds.  The tool prints
every pair's figures and its ratio B/A, then the median ratio and how many
pairs B led.  With ``--control`` it runs as many A/A pairs, two workers of
checkout A, whose ratios show how far identical code reads apart.

    python3 tools/ab_rounds.py PARENT CHANGED --workload gsbc-probe \\
        --seed 1 --pairs 6 --rounds 8 --control

Each checkout is a directory holding ``src/ultrashift`` and ``bench``; the
workers run the workload code of their own checkout.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HASH_SEED_BASE = 1000


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout A (the reference)")
    ap.add_argument("b", nargs="?", help="checkout B (the change)")
    ap.add_argument("--workload", default="gsbc-probe")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--rounds", type=int, default=8,
                    help="rounds each worker of a pair takes")
    ap.add_argument("--control", action="store_true",
                    help="also run as many A/A pairs")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.worker and args.b is None:
        ap.error("checkout B is required")
    if args.pairs < 1 or args.rounds < 1:
        ap.error("--pairs and --rounds must be at least 1")
    return args


def worker(args) -> int:
    """Set the workload up in checkout A's code, then run one round per
    line read from standard input and answer with its verdict times."""
    root = os.path.abspath(args.a)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import runner

    wl, _ = runner.timed_setup(argparse.Namespace(
        workload=args.workload, seed=args.seed, scale=1.0))
    ops = wl.ops()
    for _ in sys.stdin:
        res = runner.run_round(wl, ops)
        # a verdict failing through a fault the workload names is expected
        failed = sum(op.known_fault is None for op, _ in res.failures)
        print(json.dumps({"latencies": res.latencies, "failed": failed}),
              flush=True)
    return 0


class Worker:
    def __init__(self, checkout: str, args, hash_seed: int):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), checkout, "--worker",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=checkout, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.samples: list[list[float]] | None = None
        self.failed = 0

    def round(self) -> None:
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a worker exited early")
        got = json.loads(line)
        if self.samples is None:
            self.samples = [[] for _ in got["latencies"]]
        for acc, dt in zip(self.samples, got["latencies"]):
            acc.append(dt)
        self.failed += got["failed"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def verdicts_per_s(self) -> float:
        return len(self.samples) / sum(map(statistics.median, self.samples))


def run_pair(a: str, b: str, args, hash_seed: int) -> tuple[float, float]:
    first, second = Worker(a, args, hash_seed), Worker(b, args, hash_seed)
    try:
        for r in range(args.rounds):
            # A B, B A, A B, ...: neither side always goes first
            order = (first, second) if r % 2 == 0 else (second, first)
            for w in order:
                w.round()
    finally:
        first.close()
        second.close()
    for side, w in (("A", first), ("B", second)):
        if w.failed:
            print(f"  warning: {w.failed} verdicts failed on side {side} "
                  f"through no known fault")
    return first.verdicts_per_s(), second.verdicts_per_s()


def compare(a: str, b: str, args, title: str) -> None:
    print(f"{title}: {args.workload} seed {args.seed}, {args.pairs} pairs "
          f"of {args.rounds} rounds per side")
    ratios = []
    for k in range(args.pairs):
        hash_seed = HASH_SEED_BASE + k
        va, vb = run_pair(a, b, args, hash_seed)
        ratios.append(vb / va)
        print(f"  pair {k + 1} (PYTHONHASHSEED={hash_seed}): A {va:.1f} "
              f"B {vb:.1f} verdicts/s, B/A {vb / va:.3f}", flush=True)
    ahead = sum(r > 1 for r in ratios)
    print(f"  median B/A {statistics.median(ratios):.3f}, B ahead in "
          f"{ahead} of {len(ratios)} pairs (range {min(ratios):.3f}-"
          f"{max(ratios):.3f})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    a, b = os.path.abspath(args.a), os.path.abspath(args.b)
    compare(a, b, args, "A/B")
    if args.control:
        compare(a, a, args, "A/A control")
    return 0


if __name__ == "__main__":
    sys.exit(main())
