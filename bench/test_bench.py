"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402
import runner  # noqa: E402
import wl_gsbc  # noqa: E402
import wl_intake  # noqa: E402
import wl_paper  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in
               result["metrics"].values())


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper-checks", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _failures(wl, ops):
    return [(op.label, err) for op, err in runner.run_round(wl, ops).failures]


def test_wrong_paper_answer_is_a_failed_verdict():
    wl = wl_paper.PaperChecks(1)
    wl.setup()
    ops = [op for op in wl.ops() if op.label == "a: partition (pools 0)"]
    ops[0].check = wl_paper.expect(wl_paper.FAILS)
    failures = _failures(wl, ops)
    assert failures == [("a: partition (pools 0)",
                         "verdict holds, the paper says fails")]
    assert runner._report_failures(runner.run_round(wl, ops).failures) \
        is False


def test_known_fault_is_failed_but_correct():
    wl = wl_paper.PaperChecks(1)
    wl.setup()
    ops = [op for op in wl.ops() if op.known_fault]
    res = runner.run_round(wl, ops)
    assert len(res.failures) == 1
    assert runner._report_failures(res.failures) is True


def test_wrong_image_is_a_failed_probe(monkeypatch):
    wl = wl_gsbc.GsbcProbe(1, scale=0.07)
    wl.setup()
    ops = wl.ops()[:2]
    assert _failures(wl, ops) == []
    monkeypatch.setattr(wl_gsbc, "expected_image", lambda x: wl_gsbc._Periodic(
        (), (type(x.cycle[0])("nowhere", 0),)))
    assert [label for label, _ in _failures(wl, ops)] == \
        [op.label for op in ops]


def test_wrong_generated_graph_is_a_failed_intake():
    wl = wl_intake.GraphIntake(1, scale=0.002)
    wl.setup()
    ops = wl.ops()
    assert _failures(wl, ops) == []
    draw = wl.cases[0][0]
    draw.vdoms = {vf: ((5, 7),) for vf in draw.vdoms}
    assert _failures(wl, ops[:1])[0][1] == \
        "parsed graph differs from the generated one"
