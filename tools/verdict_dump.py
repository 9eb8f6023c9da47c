"""Hash every verdict a benchmark workload gives, to compare two checkouts.

Sets the workload of one checkout up in this process, runs R rounds of its
verdicts in order (each round after the workload's ``begin_round``, as
``bench/run.py`` runs them, so later rounds read what earlier ones left in
the graphs' and maps' tables), and prints the record count and a SHA-256
over every record: the verdict's label, the repr of its value, its detail
and witness, and what it wrote to standard output.  A verdict that raises
is recorded by its error.  Two checkouts whose verdicts agree print the
same line.

    python3 tools/verdict_dump.py CHECKOUT --workload paper-checks \\
        --seed 1 --rounds 2

The checkout is a directory holding ``src/ultrashift`` and ``bench``; the
tool only imports ``bench`` and writes nothing.  ``--verbose`` also prints
one line per record, for a diff of two checkouts' dumps.  Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout")
    ap.add_argument("--workload", default="gsbc-probe")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="fraction of the workload's full round size")
    ap.add_argument("--verbose", action="store_true",
                    help="print every record before the summary")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if not os.path.isdir(os.path.join(args.checkout, "bench")):
        ap.error(f"{args.checkout} holds no bench directory")
    return args


def record(label: str, call) -> str:
    """One verdict as text: its label, value, detail, witness and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            value = call()
        except Exception as exc:  # a raising verdict is part of the record
            return f"{label}\terror {type(exc).__name__}: {exc}\t" \
                   f"{out.getvalue()!r}"
    fields = [label, repr(value), str(getattr(value, "detail", None)),
              str(getattr(value, "witness", None)), repr(out.getvalue())]
    return "\t".join(fields)


def dump(args) -> tuple[int, str]:
    """(record count, SHA-256 of the records) over the workload's rounds."""
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    sys.dont_write_bytecode = True  # leave the checkout as it was
    import runner

    wl, _ = runner.timed_setup(argparse.Namespace(
        workload=args.workload, seed=args.seed, scale=args.scale))
    ops = wl.ops()
    digest = hashlib.sha256()
    count = 0
    for _ in range(args.rounds):
        begin = getattr(wl, "begin_round", None)
        if begin is not None:
            begin()
        for op in ops:
            line = record(op.label, op.call)
            if args.verbose:
                print(line)
            digest.update(line.encode("utf-8") + b"\n")
            count += 1
    return count, digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    count, sha = dump(args)
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds: "
          f"{count} records, sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
