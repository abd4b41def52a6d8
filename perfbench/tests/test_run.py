"""The command's output schema, the repeatability of its program-made counts,
and its refusal to run without the rwmatch sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload, seed, trace, cwd=ROOT):
    # a run shorter than one round measures exactly one round
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)
    ]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert out["failed"] == 0
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = _result(_run(workload, 11, 0))
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, 12, 1)) for _ in range(2))
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k, unit in want.items() if unit == "count/round"]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }
    assert first["attempted"] == second["attempted"]
    # one solve per transport pair or pipeline-loss evaluation at least; the
    # dual-softmax pairs run none
    sinkhorn_calls = first["metrics"]["matching.sinkhorn_calls"]["value"]
    if workload == "dense-pairs":
        assert sinkhorn_calls == len(workloads.OT_PAIRS)
        assert first["metrics"]["matching.dual_softmax_calls"]["value"] == len(workloads.DS_PAIRS)
    else:
        assert sinkhorn_calls > 0
        assert first["metrics"]["sparsity.pipeline_loss_calls"]["value"] > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
    )
    proc = _run("small-sets", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "src/rwmatch" in proc.stderr
