"""One benchmark run in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.child WORKLOAD SEED SIZE TRACE

Imports the program, builds the workload's config, runs it through
:func:`repro.harness.run_experiment`, then computes the result digest and
prints one JSON line with timestamps (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` and so comparable with the parent's), counters, the
kernel path taken and, when ``TRACE`` is 1, per-layer span statistics.
Everything after the result is returned is bookkeeping whose wall and CPU
time the parent subtracts.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from perfbench.probe import Probe, maxrss_kb  # noqa: E402


def main(argv: list[str]) -> None:
    workload, seed, size, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    probe = Probe(traced=trace, t0=T0)
    with probe.span("harness.import"):
        import numpy

        from perfbench import workloads
        from repro.harness import run_experiment
        from repro.telemetry.registry import get_registry
    probe.install()
    with probe.span("harness.config"):
        cfg = workloads.make_config(workload, seed, size)
    config_end = time.perf_counter()
    registry = get_registry()
    if trace:
        # The parallel backend's per-shard health is read from its existing
        # telemetry readbacks; instrumentation is polled, never scheduled.
        registry.enable()
    with probe.span("harness.run"):
        res = run_experiment(cfg)
    t_result = time.perf_counter()
    peak_kb = maxrss_kb()
    probe.close_root(t_result)

    cpu0 = time.process_time()
    workers = probe.worker_stats()
    probe.close()
    main_stats = probe.process_stats(peak_kb)
    rep = res.oracle_report
    out = {
        "t0": T0,
        "config_end": config_end,
        "t_result": t_result,
        "digest": workloads.digest(cfg, res),
        "oracle_ok": None if rep is None else rep.ok,
        "oracle_checks": None if rep is None else rep.checks,
        "events": res.events_dispatched,
        "transport": dict(res.transport_stats),
        "jumps": res.total_jumps(),
        "path": {
            "batch_gate_reason": res.batch_gate_reason,
            "par_fallback_reason": res.par_fallback_reason,
            "par_shards": res.par_shards,
            "array_table": main_stats["tables_built"]
            + sum(w["tables_built"] for w in workers)
            > 0,
        },
        "main": main_stats,
        "workers": workers,
        "numpy": numpy.__version__,
    }
    if trace:
        snap = registry.snapshot()
        out["telemetry"] = {
            k: v
            for part in ("counters", "gauges")
            for k, v in snap[part].items()
            if k.startswith("par.")
        }
    out["bench_cpu_s"] = time.process_time() - cpu0
    out["t_done"] = time.perf_counter()
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
