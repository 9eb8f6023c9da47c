"""tools/verdict_dump.py hashes every verdict of a workload's rounds, the
same way on every run of the same code, and leaves the checkout as it
was."""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

from ultrashift.verdicts import Verdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "verdict_dump.py"


def _tool():
    spec = importlib.util.spec_from_file_location("verdict_dump", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*argv, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, str(TOOL), *argv],
                          capture_output=True, text=True, timeout=120,
                          env=env)


def _snapshot(path: pathlib.Path) -> dict:
    return {str(p): p.stat().st_mtime_ns for p in path.rglob("*")}


def test_a_small_dump_is_the_same_on_every_run():
    before = _snapshot(ROOT / "bench")
    for workload, count in (("gsbc-probe", 2 * 80), ("paper-checks", 2 * 111)):
        argv = [str(ROOT), "--workload", workload, "--seed", "3",
                "--rounds", "2", "--scale", "0.1"]
        one, two = _run(*argv), _run(*argv, hash_seed="7")
        assert one.returncode == 0, one.stderr
        got = re.fullmatch(
            rf"{workload} seed 3, 2 rounds: (\d+) records, "
            r"sha256 ([0-9a-f]{64})\n", one.stdout)
        assert got and int(got.group(1)) == count, one.stdout
        assert two.stdout == one.stdout
        verbose = _run(*argv, "--verbose").stdout.splitlines()
        assert len(verbose) == count + 1
        assert verbose[-1] == one.stdout.strip()
    assert _snapshot(ROOT / "bench") == before


def test_a_record_holds_label_value_detail_witness_and_output():
    tool = _tool()
    v = Verdict("probe-continuity", "holds", "detail text", ("w", 1))
    got = tool.record("op", lambda: (print("out"), v)[1]).split("\t")
    assert got == ["op", repr(v), "detail text", "('w', 1)", "'out\\n'"]
    other = Verdict("probe-continuity", "holds", "detail text", ("w", 2))
    assert tool.record("op", lambda: other) != tool.record("op", lambda: v)

    def raising():
        raise ValueError("no")
    assert tool.record("op", raising) == "op\terror ValueError: no\t''"


def test_refuses_no_rounds_and_a_directory_without_bench():
    for argv in ([str(ROOT), "--rounds", "0"], [str(ROOT / "tests")]):
        got = _run(*argv)
        assert got.returncode == 2 and "error:" in got.stderr
