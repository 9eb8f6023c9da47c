"""cProfile summary of one round of a workload, the starting point for a
performance change.  Run from the repository root:

    python3 bench/profile_round.py --workload gsbc-probe --seed 1

cProfile adds a cost to every Python call, so it shifts the proportions;
confirm any gain with ``run.py``, which runs with profiling off.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys

sys.path.insert(0, os.path.abspath("src"))

import runner  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("gsbc-probe", "paper-checks", "graph-intake"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args(argv)
    runner.import_package()
    wl = runner._workload_class(args.workload)(args.seed)
    wl.setup()
    ops = wl.ops()
    if hasattr(wl, "begin_round"):
        wl.begin_round()
    prof = cProfile.Profile()
    for op in ops:  # the timed calls only, as in run.py; checks are left out
        prof.enable()
        op.call()
        prof.disable()
    print(f"{args.workload} seed {args.seed}: one round of {len(ops)} "
          "verdicts")
    for order in ("tottime", "cumulative"):
        out = io.StringIO()
        stats = pstats.Stats(prof, stream=out).strip_dirs()
        stats.sort_stats(order).print_stats(args.top)
        body = out.getvalue()
        print(body[body.index("   ncalls"):].rstrip())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
