"""Benchmark of ultrashift verdicts, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload gsbc-probe --seed 1 --seconds 55 --trace 0

Workloads: gsbc-probe, paper-checks, graph-intake (see README.md).  Each
workload runs in a child process as a closed loop: one caller, one thread,
each verdict started after the previous one returned.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` a separate traced run reports the per-layer
metrics instead.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE_INIT = os.path.join("src", "ultrashift", "__init__.py")
WORKLOADS = ("gsbc-probe", "paper-checks", "graph-intake")
END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# set-up is measured in this many fresh processes; the median is reported
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="fraction of the full round size; below 1 only "
                         "for the benchmark's own tests")
    ap.add_argument("--role", choices=("main", "setup", "run", "trace"),
                    default="main", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _child(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--role", role]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    # earlier lines are the child's own report for a reader of the log
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main_parent(args) -> int:
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: {PACKAGE_INIT} not found; run from the root of an "
              "ultrashift checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            out = _child(args, "trace", deadline)
            result = {"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}
        else:
            setups = [_child(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            out = _child(args, "run", deadline)
            setups.append(out["setup_s"])
            values = {
                "setup_s": statistics.median(setups),
                "verdicts_per_s": out["verdicts_per_s"],
                "verdict_p50_ms": out["verdict_p50_ms"],
                "verdict_p90_ms": out["verdict_p90_ms"],
                "peak_rss_mb": out["peak_rss_mb"],
            }
            print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
            result = {"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                  for k, v in values.items()}}
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "main":
        return main_parent(args)
    sys.path.insert(0, os.path.abspath("src"))
    import runner

    return runner.child_main(args)


if __name__ == "__main__":
    sys.exit(main())
