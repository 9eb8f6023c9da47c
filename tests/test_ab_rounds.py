"""tools/ab_rounds.py runs a workload of two checkouts in a process pair
and reports each side's verdicts per second and set-up seconds, and
their ratios."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_rounds.py"


def test_one_pair_of_one_round_reports_both_sides():
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload",
         "gsbc-probe", "--seed", "3", "--pairs", "1", "--rounds", "1"],
        capture_output=True, text=True, timeout=120, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "A/B: gsbc-probe seed 3, 1 pairs of 1 rounds per side"
    got = re.fullmatch(r"  pair 1 \(PYTHONHASHSEED=1000\): A ([\d.]+) "
                       r"B ([\d.]+) verdicts/s, B/A ([\d.]+); "
                       r"set-up A ([\d.]+) B ([\d.]+) s, B/A ([\d.]+)",
                       lines[1])
    assert got and all(float(v) > 0 for v in got.groups())
    assert lines[2].startswith("  median B/A ")
    assert re.fullmatch(r"  median set-up B/A ([\d.]+), B lower in [01] of "
                        r"1 pairs \(range ([\d.]+)-([\d.]+)\)", lines[3])
    assert len(lines) == 4


def test_refuses_a_missing_checkout_and_empty_runs():
    for argv in ([str(ROOT)], [str(ROOT), str(ROOT), "--pairs", "0"],
                 [str(ROOT), str(ROOT), "--rounds", "0"]):
        got = subprocess.run([sys.executable, str(TOOL)] + argv,
                             capture_output=True, text=True, timeout=60)
        assert got.returncode == 2 and "error:" in got.stderr
