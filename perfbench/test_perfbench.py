"""Tests of the benchmark itself: traced-run neutrality, checks, contract.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Every run here is a small instance of a benchmark workload in a fresh
process, exactly as the benchmark spawns them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = workloads.load_spec()


def _run(workload: str, seed: int, traced: bool) -> dict:
    run = bench.spawn(workload, seed, "small", traced, timeout=120.0)
    assert run["error"] is None, run["error"]
    return run


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_is_neutral(workload):
    plain = _run(workload, 3, traced=False)
    traced = _run(workload, 3, traced=True)
    assert traced["child"]["digest"] == plain["child"]["digest"]
    assert traced["child"]["path"] == plain["child"]["path"]
    assert workloads.path_error(workload, plain["child"]["path"], SPEC) is None
    assert plain["child"]["oracle_ok"] is True
    # Spans nest, self times are >= 0 and add up to the root span.
    assert bench.span_error(traced) is None
    for stats in [traced["child"]["main"]] + traced["child"]["workers"]:
        chk = stats["check"]
        assert chk["nested"] and chk["roots"] == 1
        assert chk["min_self_s"] >= -chk["tolerance_s"]
        assert chk["self_sum_gap_s"] <= chk["tolerance_s"]
    if workload == "sync_ring_par2":
        assert len(traced["child"]["workers"]) == 2


def test_traced_run_reports_every_per_layer_metric():
    plain = _run("sync_ring_par2", 0, traced=False)
    traced = _run("sync_ring_par2", 0, traced=True)
    produced = set(bench.layer_metrics(traced, SPEC)) | {"trace.overhead_ratio"}
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert produced == declared
    metrics = bench.layer_metrics(traced, SPEC)
    assert metrics["sim.par.windows"] > 0 and metrics["sim.par.envelopes"] > 0
    assert metrics["core.batch.engaged"] == 1 and metrics["core.batch.records"] > 0
    assert metrics["sim.events"] == plain["child"]["events"]


@pytest.mark.parametrize("seed", [0, 5])
def test_sharded_run_reproduces_serial_digest(seed):
    serial = _run("sync_ring", seed, traced=False)
    sharded = _run("sync_ring_par2", seed, traced=False)
    assert sharded["child"]["path"]["par_shards"] == 2
    assert sharded["child"]["digest"] == serial["child"]["digest"]


def test_wrong_digest_and_wrong_path_fail_the_run():
    run = _run("mobile_churn", 0, traced=False)
    assert bench.check_run(run, "mobile_churn", 1, SPEC, None) is None
    ref = {"digest": "0" * 64, "path": run["child"]["path"]}
    assert "digest" in bench.check_run(run, "mobile_churn", 1, SPEC, ref)
    # The default seed is pinned to the full-size digest, not the small one.
    assert "pinned" in bench.check_run(run, "mobile_churn", 0, SPEC, None)
    assert "kernel path" in bench.check_run(run, "sync_ring", 1, SPEC, None)


def test_spec_matches_benchmark_json():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        described = SPEC["metrics"][metric["name"]]
        assert described["unit"] == metric["unit"]
        assert described["better"] == metric["better"]
    assert {m["name"] for m in contract["end_to_end"]} == set(bench.END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sync_ring", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
