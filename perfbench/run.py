"""The repository benchmark: checked simulation runs, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload sync_ring --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25        # every workload, plus the par verdict

Load is closed-loop: this driver starts one run of the workload as a fresh
Python process (``python3 -m perfbench.child``), waits for it to exit, and
starts the next until ``--seconds`` have passed.  Each run is checked: it
fails if it crashes or times out, if the streaming oracle reports a
violation, if its result digest differs from the pinned one (default
seed) or from the invocation's other runs, or if it did not take the
workload's declared kernel path.  ``error_rate`` is ``failed / attempted``.

``--trace 0`` prints the end-to-end metrics, each the median over the
runs.  ``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics of the traced runs (medians), plus the traced run's
overhead.  Metric definitions, units and the workloads' rationale are in
``perfbench/spec.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Measurement method:

* ``wall_s``: spawn to exit of the run process, minus the time the process
  spends after the result computing the digest and run statistics.
* ``setup_s``: spawn to the start of the event loop (the first
  ``Simulator.run_until``); for the parallel backend, to the moment the
  last shard worker enters its loop, so the workers' build is included.
* ``cpu_s``: user+sys CPU of the process tree (``RUSAGE_CHILDREN`` of this
  driver across the run, which covers the shard workers the run process
  joined), minus the CPU of the digest bookkeeping.
* ``peak_rss_mb``: peak RSS of the run process plus, for each forked shard
  worker, its peak RSS less the RSS it inherited at fork.  Summing is
  needed because ``ru_maxrss`` of children reports only the largest single
  process; pages shared copy-on-write and later copied are counted once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

#: The seed the pinned digests in spec.json belong to.
DEFAULT_SEED = 0
#: A whole invocation must end within this many seconds.
INVOCATION_LIMIT_S = 170.0
END_TO_END = ("wall_s", "setup_s", "events_per_s", "cpu_s", "peak_rss_mb")


def host_info() -> dict[str, Any]:
    """nproc, CPU model and interpreter / numpy versions of this host."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    from importlib.metadata import PackageNotFoundError, version

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:  # the runs report numpy's version themselves
        numpy_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def build() -> None:
    """Byte-compile the program and the benchmark (a no-op once current)."""
    import compileall

    for sub in ("src", "perfbench"):
        if not compileall.compile_dir(str(ROOT / sub), quiet=1):
            raise SystemExit(f"perfbench: compiling {sub}/ failed")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in workloads.STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def spawn(workload: str, seed: int, size: str, traced: bool, timeout: float) -> dict[str, Any]:
    """Run the workload once in a fresh process; time and parse it."""
    cmd = [
        sys.executable, "-m", "perfbench.child",
        workload, str(seed), size, "1" if traced else "0",
    ]
    cpu0 = _cpu_children()
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"traced": traced, "error": f"timed out after {timeout:.0f} s"}
    t_exit = time.perf_counter()
    cpu = _cpu_children() - cpu0
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-3:]
        return {"traced": traced, "error": f"exit code {proc.returncode}: {' | '.join(tail)}"}
    try:
        child = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"traced": traced, "error": "run printed no result"}
    workers = child["workers"]
    if workers:
        loop_start = max(w["loop_start"] for w in workers)
    else:
        loop_start = child["main"]["loop_start"]
    bookkeeping = child["t_done"] - child["t_result"]
    wall = t_exit - t_spawn - bookkeeping
    peak_kb = child["main"]["maxrss_kb"] + sum(
        w["maxrss_kb"] - w["rss_at_fork_kb"] for w in workers
    )
    return {
        "traced": traced,
        "error": None,
        "child": child,
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "loop_start": loop_start,
        "wall_s": wall,
        "setup_s": loop_start - t_spawn,
        "cpu_s": cpu - child["bench_cpu_s"],
        "events_per_s": child["events"] / wall,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def span_error(run: dict[str, Any]) -> str | None:
    """Why a traced run's spans do not nest or do not add up."""
    child = run["child"]
    for who, stats in [("run", child["main"])] + [
        (f"worker{i}", w) for i, w in enumerate(child["workers"])
    ]:
        chk = stats["check"]
        if chk["roots"] != 1 or not chk["nested"]:
            return f"{who}: spans do not nest"
        if chk["min_self_s"] < -chk["tolerance_s"]:
            return f"{who}: negative self time {chk['min_self_s']!r}"
        if chk["self_sum_gap_s"] > chk["tolerance_s"]:
            return f"{who}: self times miss the root by {chk['self_sum_gap_s']!r} s"
    return None


def check_run(
    run: dict[str, Any],
    workload: str,
    seed: int,
    spec: dict[str, Any],
    reference: dict[str, Any] | None,
    twin_digest: str | None = None,
) -> str | None:
    """Why the run failed (``None`` when it passed every check).

    ``reference`` is the digest and path of the invocation's first passing
    run; ``twin_digest`` is a digest the run must reproduce (the serial
    run of the same config, for the sharded workload).
    """
    if run["error"] is not None:
        return run["error"]
    child = run["child"]
    if child["oracle_ok"] is not True:
        return f"oracle verdict is {child['oracle_ok']!r}"
    pinned = spec["workloads"][workload]["digest_seed0"]
    if seed == DEFAULT_SEED and child["digest"] != pinned:
        return f"digest {child['digest'][:16]} differs from pinned {pinned[:16]}"
    if twin_digest is not None and child["digest"] != twin_digest:
        return f"digest {child['digest'][:16]} differs from the serial run's {twin_digest[:16]}"
    if reference is not None and child["digest"] != reference["digest"]:
        return f"digest {child['digest'][:16]} differs from this invocation's {reference['digest'][:16]}"
    err = workloads.path_error(workload, child["path"], spec)
    if err is not None:
        return f"kernel path: {err}"
    if reference is not None and child["path"] != reference["path"]:
        return f"kernel path {child['path']} differs from {reference['path']}"
    if run["traced"]:
        return span_error(run)
    return None


def _gate_code(reason: str | None, spec: dict[str, Any]) -> int:
    if reason is None:
        return 0
    known = spec["gate_reasons"]
    return known.index(reason) + 1 if reason in known else -1


def layer_metrics(run: dict[str, Any], spec: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced run (see spec.json for definitions)."""
    child = run["child"]
    procs = [child["main"]] + child["workers"]

    def total(field: str, name: str) -> float:
        return sum(p[field].get(name, 0) for p in procs)

    def self_s(*names: str) -> float:
        return sum(total("self_s", n) for n in names)

    events = child["events"]
    loop_s = child["main"]["loop_end"] - run["loop_start"]
    batches = sum(p["batch_dispatches"] for p in procs)
    pushes = sum(p["pushes"] for p in procs)
    tr = child["transport"]
    sent = tr["sent"]
    telem = child.get("telemetry", {})
    shards = range(int(telem.get("par.shards", 0)))
    busy = sum(telem.get(f"par.shard{w}.busy_seconds", 0.0) for w in shards)
    wait = sum(telem.get(f"par.shard{w}.barrier_wait_seconds", 0.0) for w in shards)
    return {
        "harness.import_s": self_s("harness.import"),
        "harness.config_s": self_s("harness.config"),
        "harness.build_s": run["loop_start"] - child["config_end"],
        "harness.finalize_s": child["t_result"] - child["main"]["loop_end"],
        "harness.exit_s": run["t_exit"] - child["t_done"],
        "sim.loop_s": loop_s,
        "sim.loop_self_s": self_s("sim.loop"),
        "sim.events": events,
        "sim.loop_events_per_s": events / loop_s,
        "sim.batch_dispatches": batches,
        "sim.records_per_batch": total("records", "sim.queue.pop_run") / batches
        if batches
        else 0.0,
        "sim.queue.pushes": pushes,
        "sim.queue.pushes_per_event": pushes / events,
        "sim.queue.allocations": sum(p["allocations"] for p in procs),
        "sim.queue.pops": total("records", "sim.queue.pop")
        + total("records", "sim.queue.pop_run")
        - batches,
        "sim.queue.self_s": self_s("sim.queue.push", "sim.queue.pop", "sim.queue.pop_run"),
        "network.transport.sends": sent,
        "network.transport.delivered": tr["delivered"],
        "network.transport.drop_ratio": (tr["dropped_no_edge"] + tr["dropped_removed"]) / sent
        if sent
        else 0.0,
        "network.transport.discoveries": tr["discoveries_delivered"],
        "network.transport.send_s": self_s("network.transport.send"),
        "network.transport.deliver_s": self_s("network.transport.deliver"),
        "network.transport.discover_s": self_s("network.transport.discover"),
        "network.graph.mutations": total("calls", "network.graph.mutate"),
        "network.graph.mutate_s": self_s("network.graph.mutate"),
        "core.driver_s": self_s("core.driver"),
        "core.handle_calls": total("calls", "core.handle"),
        "core.handle_s": self_s("core.handle"),
        "core.timer_s": self_s("core.timer"),
        "core.jumps": child["jumps"],
        "core.batch.engaged": 1 if child["path"]["array_table"] else 0,
        "core.batch.gate_reason": _gate_code(child["path"]["batch_gate_reason"], spec),
        "core.batch.calls": total("calls", "core.batch.deliver")
        + total("calls", "core.batch.timer"),
        "core.batch.records": total("records", "core.batch.deliver")
        + total("records", "core.batch.timer"),
        "core.batch.deliver_s": self_s("core.batch.deliver"),
        "core.batch.timer_s": self_s("core.batch.timer"),
        "oracle.sample_calls": total("calls", "oracle.sample"),
        "oracle.sample_s": self_s("oracle.sample"),
        "oracle.edge_events": total("calls", "oracle.edge_event"),
        "oracle.edge_event_s": self_s("oracle.edge_event"),
        "oracle.report_s": self_s("oracle.report"),
        "oracle.checks": child["oracle_checks"],
        "sim.par.partition_s": self_s("sim.par.partition"),
        "sim.par.windows": telem["par.window"] + 1 if "par.window" in telem else 0,
        "sim.par.envelopes": sum(
            telem.get(f"par.shard{w}.envelopes_out", 0) for w in shards
        ),
        "sim.par.busy_s": busy,
        "sim.par.barrier_wait_s": wait,
        "sim.par.utilization": busy / (busy + wait) if busy + wait else 0.0,
        "trace.spans": sum(p["check"]["spans"] for p in procs),
    }


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    spec: dict[str, Any],
    deadline: float,
    twin_digest: str | None = None,
) -> dict[str, Any]:
    """Closed-loop runs of one workload for ``seconds``; each run checked.

    With ``traced`` the runs alternate untraced / traced, starting
    untraced, and at least one of each is made.  After that, a run starts
    only if a run of the median length so far still ends within
    ``seconds`` (so an invocation does not overrun its measuring time)
    and twice that before ``deadline``.
    """
    runs: list[dict[str, Any]] = []
    reference: dict[str, Any] | None = None
    start = time.perf_counter()
    min_runs = 2 if traced else 1
    while True:
        now = time.perf_counter()
        lengths = [r["t_exit"] - r["t_spawn"] for r in runs if "t_exit" in r]
        typical = _median(lengths) if lengths else 0.0
        if len(runs) >= min_runs and (
            now + typical > start + seconds or now + 2 * typical > deadline
        ):
            break
        timeout = deadline - now
        run = spawn(workload, seed, "full", traced and len(runs) % 2 == 1, timeout)
        run["failure"] = check_run(run, workload, seed, spec, reference, twin_digest)
        if run["failure"] is None and reference is None:
            reference = {"digest": run["child"]["digest"], "path": run["child"]["path"]}
        runs.append(run)
    return {"workload": workload, "runs": runs, "reference": reference}


def report(measured: dict[str, Any], traced: bool, spec: dict[str, Any]) -> dict[str, Any]:
    """Print one workload's runs and metrics; return them with the counts."""
    workload = measured["workload"]
    runs = measured["runs"]
    units = {k: m["unit"] for k, m in spec["metrics"].items()}
    print(f"workload {workload}: {spec['workloads'][workload]['why']}")
    for i, run in enumerate(runs):
        kind = "traced  " if run["traced"] else "untraced"
        if run.get("child") is None:
            print(f"  run {i} {kind} FAILED: {run['failure']}")
            continue
        path = run["child"]["path"]
        status = "ok" if run["failure"] is None else f"FAILED: {run['failure']}"
        print(
            f"  run {i} {kind} wall {run['wall_s']:.3f} s  setup {run['setup_s']:.3f} s  "
            f"cpu {run['cpu_s']:.3f} s  rss {run['peak_rss_mb']:.1f} MB  "
            f"events {run['child']['events']}  digest {run['child']['digest'][:16]}  "
            f"gate={path['batch_gate_reason']!r} shards={path['par_shards']!r}  {status}"
        )
    attempted = len(runs)
    failed = sum(1 for r in runs if r["failure"] is not None)
    print(f"  error_rate {failed / attempted:.4f} ratio ({failed} failed / {attempted} attempted)")
    plain = [r for r in runs if r.get("child") is not None and not r["traced"]]
    values: dict[str, float] = {}
    if not traced:
        for name in END_TO_END:
            samples = [r[name] for r in plain]
            if not samples:
                continue
            values[name] = _median(samples)
            lo, hi = _quartiles(samples)
            print(
                f"  {name} = {values[name]:.6g} {units[name]}  "
                f"(median of n={len(samples)}, quartiles {lo:.6g}..{hi:.6g})"
            )
    else:
        traced_runs = [r for r in runs if r.get("child") is not None and r["traced"]]
        per_run = [layer_metrics(r, spec) for r in traced_runs]
        if per_run:
            for name in per_run[0]:
                values[name] = _median([m[name] for m in per_run])
            if plain:
                values["trace.overhead_ratio"] = _median(
                    [r["wall_s"] for r in traced_runs]
                ) / _median([r["wall_s"] for r in plain])
            print(f"  per-layer metrics (median of n={len(per_run)} traced runs):")
            for name, value in values.items():
                print(f"    {name} = {value:.6g} {units[name]}")
            reason = traced_runs[0]["child"]["path"]["batch_gate_reason"]
            print(f"    core.batch.gate_reason text: {reason!r}")
    reference = measured["reference"]
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "attempted": attempted,
        "failed": failed,
        "digest": None if reference is None else reference["digest"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    build()
    spec = workloads.load_spec()
    host = host_info()
    print(
        f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
        f"python={host['python']} numpy={host['numpy']}"
    )
    print(f"load: closed loop, one run process at a time; seed={args.seed}")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traced = args.trace == 1
    results: dict[str, dict[str, Any]] = {}
    for i, name in enumerate(names, 1):
        # sync_ring runs first, so its digest is the parallel run's twin.
        twin = results.get("sync_ring", {}).get("digest")
        measured = measure(
            name, args.seed, args.seconds, traced, spec,
            start + INVOCATION_LIMIT_S * i,
            twin_digest=twin if name == "sync_ring_par2" else None,
        )
        results[name] = report(measured, traced, spec)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {
            f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
        }
        serial = results["sync_ring"]["metrics"].get("wall_s")
        par = results["sync_ring_par2"]["metrics"].get("wall_s")
        if serial and par:
            ratio = serial["value"] / par["value"]
            print(
                f"par verdict: wall_s(sync_ring) / wall_s(sync_ring_par2) = "
                f"{serial['value']:.3f} s / {par['value']:.3f} s = {ratio:.3f}x "
                f"on nproc={host['nproc']}; ROADMAP keeps par only at >= 1.5x "
                f"-> {'keep' if ratio >= 1.5 else 'remove'}"
            )
    if not metrics:
        print("perfbench: no run produced a result", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
