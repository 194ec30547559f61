"""Tiny-size smoke test of every benchmark workload, untraced and traced.

    python3 -m pytest bench

Each workload runs one operation at toy sizes; the test checks that the
result line follows BENCHMARK.json and that the output checks pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

from workloads import Sizes  # noqa: E402  (needs the program on sys.path)

TINY = Sizes(source_pool=8, train_call=4, ckpt_sentences=4, ckpt_batch=4, episodes=2,
             n_way=2, n_query=2, lr_classes=2, lr_pool=10, lr_test=3, gc_d=4, gc_l=4)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_runs_and_reports_every_metric(workload, trace, tmp_path):
    result, record = run.run(workload, seed=3, seconds=0, trace=trace, sizes=TINY,
                             out_dir=str(tmp_path))
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert os.listdir(tmp_path) == (["trace-%s-3.jsonl" % workload] if trace else [])


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, the run must fail
    without printing a result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "gradcheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
