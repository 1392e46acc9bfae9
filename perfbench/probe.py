"""In-process instrumentation for one benchmark run.

A :class:`Probe` wraps calls into the program's layers at class level, from
the benchmark's own files; nothing under ``src/`` is modified.  Every run
gets the cheap part: the event loop's start and end (``Simulator.run_until``)
and the simulators that ran, which give ``setup_s`` and the kernel counters.
A *traced* probe also records a span around every wrapped call -- name,
start, end and parent, kept in memory as flat arrays -- plus exact call
counts, record counts and self time per span name.

Forked shard workers of the parallel backend inherit the wrappers.  A
``multiprocessing`` after-fork hook gives each worker a fresh span table,
and an exit finalizer writes the worker's statistics into a slot of an
anonymous shared mapping, which the run process reads back after the run.
A worker claims its slot by reading one token byte from a pipe, so no two
workers share a slot and no file is created.

The module imports only the standard library at load time, so the run
process can start its root span before it imports the program.
"""

from __future__ import annotations

import json
import mmap
import os
import resource
from array import array
from contextlib import contextmanager
from multiprocessing import util as mp_util
from time import perf_counter
from typing import Any, Callable, Iterator

#: Bytes of shared memory per worker for its statistics (JSON).
SLOT_BYTES = 1 << 16
#: Worker slots (the benchmark forks at most 2 workers).
MAX_WORKERS = 8
#: perf_counter resolution on Linux (CLOCK_MONOTONIC); each span boundary
#: can be off by this much, which bounds how far self times may disagree
#: with the root span's duration.
CLOCK_ERROR_S = 1e-9

#: (module, class or None, attribute, span name, record weight).
#: A ``None`` class wraps a module-level function.  The weight maps
#: ``(args, result)`` to the number of records the call handled.
_LAYER_CALLS: list[tuple[str, str | None, str, str, Callable[..., int] | None]] = [
    ("repro.sim.queue", "EventQueue", "push_typed", "sim.queue.push", None),
    ("repro.sim.queue", "EventQueue", "push_keyed", "sim.queue.push", None),
    (
        "repro.sim.queue", "EventQueue", "pop_until", "sim.queue.pop",
        lambda a, r: 0 if r is None else 1,
    ),
    (
        # A run's length includes the record pop_until already returned.
        "repro.sim.queue", "EventQueue", "pop_run", "sim.queue.pop_run",
        lambda a, r: r,
    ),
    ("repro.network.transport", "Transport", "send", "network.transport.send", None),
    ("repro.sim.par", "ParTransport", "send", "network.transport.send", None),
    (
        "repro.network.transport", "Transport", "_deliver",
        "network.transport.deliver", None,
    ),
    (
        "repro.sim.par", "ParTransport", "_dispatch_deliver_record",
        "network.transport.deliver", None,
    ),
    (
        "repro.network.transport", "Transport", "_handle_discover",
        "network.transport.discover", None,
    ),
    (
        "repro.sim.par", "ParTransport", "_handle_discover",
        "network.transport.discover", None,
    ),
    ("repro.network.graph", "DynamicGraph", "add_edge", "network.graph.mutate", None),
    ("repro.network.graph", "DynamicGraph", "remove_edge", "network.graph.mutate", None),
    ("repro.core.node", "ClockSyncNode", "_dispatch", "core.driver", None),
    ("repro.core.node", "ClockSyncNode", "_fire_timer", "core.timer", None),
    ("repro.core.protocol", "ProtocolCore", "handle", "core.handle", None),
    (
        "repro.core.batch", "NodeArrayTable", "deliver_batch", "core.batch.deliver",
        lambda a, r: len(a[1]),
    ),
    (
        "repro.core.batch", "NodeArrayTable", "deliver_burst", "core.batch.deliver",
        lambda a, r: len(a[1]),
    ),
    (
        "repro.core.batch", "NodeArrayTable", "handle_timer_batch",
        "core.batch.timer", lambda a, r: len(a[1]),
    ),
    (
        "repro.core.batch", "NodeArrayTable", "handle_tick_group",
        "core.batch.timer", lambda a, r: a[1].e,
    ),
    (
        "repro.sim.par", "ParNodeArrayTable", "handle_timer_batch",
        "core.batch.timer", lambda a, r: len(a[1]),
    ),
    (
        "repro.sim.par", "ParNodeArrayTable", "handle_tick_group",
        "core.batch.timer", lambda a, r: a[1].e,
    ),
    ("repro.oracle.oracle", "StreamingOracle", "sample", "oracle.sample", None),
    ("repro.oracle.oracle", "StreamingOracle", "edge_event", "oracle.edge_event", None),
    ("repro.oracle.oracle", "StreamingOracle", "report", "oracle.report", None),
    ("repro.sim.par", None, "partition_ranges", "sim.par.partition", None),
    ("repro.harness.runner", "Experiment", "__init__", "harness.build", None),
]

#: Span names that only count inside the event loop: building ``E_0``
#: (graph replicas, the oracle's initial edge table) is set-up, not churn.
_LOOP_ONLY = {"network.graph.mutate", "oracle.edge_event"}


def _rss_kb() -> int:
    """Current resident set size of this process, in KiB."""
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") // 1024


def maxrss_kb() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SpanTable:
    """Spans of one process as flat arrays, plus per-name aggregates.

    Span ``i`` covers ``[start[i], end[i]]``, is named ``names[name[i]]``
    and was opened inside span ``parent[i]`` (``-1`` for the root).
    """

    def __init__(self, n_names: int) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.calls = [0] * n_names
        self.self_s = [0.0] * n_names
        self.records = [0] * n_names
        #: Open frames ``[span index, name id, seconds spent in children]``.
        self.stack: list[list[Any]] = []

    def open(self, nid: int, t0: float) -> list[Any]:
        idx = len(self.start)
        self.start.append(t0)
        self.end.append(t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        frame = [idx, nid, 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list[Any], t1: float) -> None:
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        idx, nid, child_s = frame
        self.end[idx] = t1
        dur = t1 - self.start[idx]
        self.self_s[nid] += dur - child_s
        self.calls[nid] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def check(self) -> dict[str, Any]:
        """Verify nesting and self times; the root must be closed.

        Returns the number of spans, whether every child lies inside its
        parent, the smallest per-span self time, and the gap between the
        summed self times and the root's duration with its allowed error.
        """
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        n = len(start)
        dur = end - start
        kids = parent >= 0
        pidx = parent[kids]
        nested = bool(
            np.all(start[pidx] <= start[kids]) and np.all(end[kids] <= end[pidx])
        )
        child_sum = np.bincount(pidx, weights=dur[kids], minlength=n)
        self_each = dur - child_sum
        roots = np.flatnonzero(~kids)
        root_s = float(dur[roots].sum())
        tol = 2 * CLOCK_ERROR_S * n + 1e-12 * n
        return {
            "spans": n,
            "roots": int(len(roots)),
            "nested": nested and not self.stack,
            "min_self_s": float(self_each.min()) if n else 0.0,
            "self_sum_gap_s": abs(sum(self.self_s) - root_s),
            "tolerance_s": tol,
            "root_s": root_s,
        }


class Probe:
    """Wraps the program's layer entry points for one process tree.

    ``traced=False`` installs only the event-loop wrapper and a counter of
    built batch tables.  Construct the probe first, before importing the
    program, so the root span covers the imports; then call
    :meth:`install` once the program is imported.
    """

    def __init__(self, traced: bool, t0: float) -> None:
        self.traced = traced
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.table = SpanTable(0)
        self._root: list[Any] | None = None
        self._reset_process_state()
        # One slot per forked worker; inherited by the fork, not pickled.
        self._slots = mmap.mmap(-1, MAX_WORKERS * SLOT_BYTES)
        self._tokens, token_w = os.pipe()
        os.write(token_w, bytes(range(MAX_WORKERS)))
        os.close(token_w)
        if traced:
            self._root = self.table.open(self._name_id("run"), t0)
        mp_util.register_after_fork(self, Probe._after_fork)

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def _reset_process_state(self) -> None:
        #: Simulators whose event loop ran in this process.
        self.sims: list[Any] = []
        self.loop_start: float | None = None
        self.loop_end: float | None = None
        self.in_loop = 0
        #: Dense array tables the batch kernel built (its gate passed).
        self.tables_built = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            table = self.table
            table.calls.append(0)
            table.self_s.append(0.0)
            table.records.append(0)
        return nid

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block (no-op when not traced)."""
        if not self.traced:
            yield
            return
        table = self.table
        frame = table.open(self._name_id(name), perf_counter())
        try:
            yield
        finally:
            table.close(frame, perf_counter())

    def close_root(self, t1: float) -> None:
        if self._root is not None:
            self.table.close(self._root, t1)
            self._root = None

    def _spanned(
        self,
        fn: Callable[..., Any],
        name: str,
        weight: Callable[..., int] | None,
    ) -> Callable[..., Any]:
        probe = self
        nid = self._name_id(name)
        loop_only = name in _LOOP_ONLY

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            table = probe.table
            stack = table.stack
            # A subclass override calling its base (both wrapped under one
            # name) is one call, not two; outside any span (worker
            # teardown) there is nothing to attribute to.
            if (
                not stack
                or stack[-1][1] == nid
                or (loop_only and not probe.in_loop)
            ):
                return fn(*args, **kwargs)
            frame = table.open(nid, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                table.close(frame, perf_counter())
            if weight is not None:
                table.records[nid] += weight(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def _counting_init(self, init: Callable[..., None]) -> Callable[..., None]:
        probe = self

        def wrapper(*args: Any, **kwargs: Any) -> None:
            init(*args, **kwargs)
            probe.tables_built += 1

        return wrapper

    def install(self) -> None:
        """Wrap the layer entry points (call after importing the program)."""
        import importlib

        from repro.core.batch import NodeArrayTable
        from repro.sim.par import ParNodeArrayTable
        from repro.sim.simulator import Simulator

        probe = self
        run_until = Simulator.run_until
        loop_wrapped = (
            self._spanned(run_until, "sim.loop", None) if self.traced else run_until
        )

        def loop(sim: Any, t_end: float) -> None:
            if probe.loop_start is None:
                probe.loop_start = perf_counter()
            if not any(s is sim for s in probe.sims):
                probe.sims.append(sim)
            probe.in_loop += 1
            try:
                loop_wrapped(sim, t_end)
            finally:
                probe.in_loop -= 1
                probe.loop_end = perf_counter()

        Simulator.run_until = loop  # type: ignore[method-assign]
        for owner in (NodeArrayTable, ParNodeArrayTable):
            owner.__init__ = self._counting_init(owner.__init__)  # type: ignore[method-assign]
        if not self.traced:
            return
        for mod_name, cls_name, attr, name, weight in _LAYER_CALLS:
            mod = importlib.import_module(mod_name)
            owner = mod if cls_name is None else getattr(mod, cls_name)
            fn = owner.__dict__[attr] if cls_name is not None else getattr(mod, attr)
            setattr(owner, attr, self._spanned(fn, name, weight))

    # ------------------------------------------------------------------ #
    # Per-process statistics
    # ------------------------------------------------------------------ #

    def process_stats(self, peak_kb: int | None = None) -> dict[str, Any]:
        """Counters of this process (call after its loop finished)."""
        sims = self.sims
        out: dict[str, Any] = {
            "loop_start": self.loop_start,
            "loop_end": self.loop_end,
            "events": sum(s.events_dispatched for s in sims),
            "pushes": sum(s.queue.pushes for s in sims),
            "allocations": sum(s.queue.allocations for s in sims),
            "batch_dispatches": sum(s.batch_dispatches for s in sims),
            "tables_built": self.tables_built,
            "maxrss_kb": maxrss_kb() if peak_kb is None else peak_kb,
        }
        if self.traced:
            table = self.table
            out["calls"] = dict(zip(self.names, table.calls))
            out["self_s"] = dict(zip(self.names, table.self_s))
            out["records"] = dict(zip(self.names, table.records))
            out["check"] = table.check()
        return out

    # ------------------------------------------------------------------ #
    # Forked workers
    # ------------------------------------------------------------------ #

    def _after_fork(self) -> None:
        """Runs first thing in each forked worker."""
        t0 = perf_counter()
        self._reset_process_state()
        self.rss_at_fork_kb = _rss_kb()
        if self.traced:
            self.table = SpanTable(len(self.names))
            self._root = self.table.open(self._name_id("par.worker"), t0)
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        """Exit finalizer of a worker: publish its statistics."""
        maxrss = maxrss_kb()
        self.close_root(perf_counter())
        stats = self.process_stats(maxrss)
        stats["rss_at_fork_kb"] = self.rss_at_fork_kb
        blob = json.dumps(stats).encode()
        if len(blob) >= SLOT_BYTES:
            raise RuntimeError(f"worker statistics too large ({len(blob)} bytes)")
        token = os.read(self._tokens, 1)
        if not token:
            raise RuntimeError("more forked workers than statistics slots")
        off = token[0] * SLOT_BYTES
        self._slots[off : off + len(blob)] = blob

    def worker_stats(self) -> list[dict[str, Any]]:
        """Statistics published by every worker that has exited."""
        out = []
        for slot in range(MAX_WORKERS):
            chunk = self._slots[slot * SLOT_BYTES : (slot + 1) * SLOT_BYTES]
            if chunk[0]:
                out.append(json.loads(chunk.split(b"\0", 1)[0]))
        return out

    def close(self) -> None:
        """Release the worker slots (after :meth:`worker_stats`)."""
        os.close(self._tokens)
        self._slots.close()
