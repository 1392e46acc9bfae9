"""The benchmark's workloads, result digest and kernel-path rules.

Each workload is a canned config from :mod:`repro.harness.configs`, built
from the seed alone and run through :func:`repro.harness.run_experiment`.
Why each one was chosen, and which layers it loads, is in ``spec.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Any

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")

WORKLOADS = ("sync_ring", "sync_ring_par2", "mobile_churn")

#: ``full`` is what the benchmark measures; ``small`` is the same shape at
#: a size the benchmark's own tests can run in seconds.
SIZES: dict[str, dict[str, Any]] = {
    "full": {"ring_n": 65536, "ring_horizon": 3.0, "mobile_n": 512, "mobile_horizon": 4.0},
    "small": {"ring_n": 512, "ring_horizon": 4.0, "mobile_n": 48, "mobile_horizon": 4.0},
}

#: Environment variables that select a kernel path or a side store; every
#: run starts without them so the declared path is the one measured.
STRIPPED_ENV = ("REPRO_BATCH", "REPRO_SHARDS", "REPRO_LEDGER", "REPRO_SWEEP_STORE")


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def make_config(workload: str, seed: int, size: str = "full") -> Any:
    """The workload's :class:`~repro.harness.runner.ExperimentConfig`."""
    from repro.harness import configs
    from repro.harness.registry import OracleRef, RuntimeRef

    p = SIZES[size]
    if workload in ("sync_ring", "sync_ring_par2"):
        # Three oracle samples (t = 0, h/2, h) whatever the horizon.
        cfg = configs.huge_sync_ring(
            p["ring_n"],
            horizon=p["ring_horizon"],
            seed=seed,
            sample_interval=p["ring_horizon"] / 2,
        )
        if workload == "sync_ring_par2":
            cfg = replace(cfg, runtime=RuntimeRef("par", {"shards": 2}))
        return cfg
    if workload == "mobile_churn":
        cfg = configs.mobile_network(
            p["mobile_n"],
            radius=0.1,
            speed=0.05,
            update_interval=0.5,
            horizon=p["mobile_horizon"],
            seed=seed,
        )
        return replace(cfg, record=False, oracle=OracleRef("standard", {}))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def digest(cfg: Any, res: Any) -> str:
    """SHA-256 over every observable a divergent execution would change.

    The same observables the parallel backend's parity tests compare:
    per-node clocks, estimates, jumps, jump totals and message counts at
    the horizon (floats as ``repr``, so the comparison is bitwise),
    transport counters, the event count and the oracle's verdict.
    """
    h = float(cfg.horizon)
    nodes = [res.nodes[i] for i in range(cfg.params.n)]
    rep = res.oracle_report
    doc = {
        "clock": [repr(nd.logical_clock(h)) for nd in nodes],
        "maxe": [repr(nd.max_estimate(h)) for nd in nodes],
        "jumps": [nd.jumps for nd in nodes],
        "total_jump": [repr(nd.total_jump) for nd in nodes],
        "messages_sent": [nd.messages_sent for nd in nodes],
        "transport": dict(res.transport_stats),
        "events": res.events_dispatched,
        "oracle": None
        if rep is None
        else [rep.ok, rep.checks, rep.violation_count, repr(rep.worst_margin)],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def path_error(workload: str, path: dict[str, Any], spec: dict[str, Any]) -> str | None:
    """Why the run did not take the workload's declared kernel path."""
    expect = spec["workloads"][workload]["path"]
    if path["par_shards"] != expect["par_shards"]:
        return f"par_shards is {path['par_shards']!r}, expected {expect['par_shards']!r}"
    if path["par_fallback_reason"] is not None:
        return f"parallel backend fell back: {path['par_fallback_reason']}"
    if path["batch_gate_reason"] != expect["batch_gate_reason"]:
        return (
            f"batch gate reason is {path['batch_gate_reason']!r}, "
            f"expected {expect['batch_gate_reason']!r}"
        )
    if path["array_table"] != expect["array_table"]:
        return f"array table engaged={path['array_table']}, expected {expect['array_table']}"
    return None
