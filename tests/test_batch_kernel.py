"""Tests for the struct-of-arrays batch dispatch path (repro.core.batch).

The load-bearing guarantee is the **parity contract**: with the batch
kernel enabled, every run metric -- skews, jumps (count *and* float
total), per-node protocol state, message counters, dispatch tallies --
is bit-identical to the scalar kernel on the same config.  The tests
here pin that contract on the batch workloads (where the vectorized
phases actually engage), on a churn workload (where the kernel must
*fall back* per record), and at the unit level for the queue's pop-run
API and the vectorized AdjustClock.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.batch import build_node_array_table
from repro.core.dcsa import adjust_clocks_batch
from repro.core.protocol import ProtocolCore
from repro.harness import configs
from repro.harness.runner import Experiment
from repro.sim import simulator as simulator_mod
from repro.sim.events import (
    KIND_DELIVER,
    KIND_DELIVER_BURST,
    KIND_DISCOVER,
    KIND_DISCOVER_BURST,
    KIND_NAMES,
    KIND_SAMPLE,
    KIND_TICK_BURST,
    KIND_TIMER,
    N_KINDS,
    POOLABLE,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
)
from repro.sim.queue import EventQueue


def _run(cfg, batch, monkeypatch):
    """Build and run ``cfg`` with the batch kernel forced on or off."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", batch)
    exp = Experiment(cfg)
    assert exp.sim.batch is batch
    res = exp.run()
    return exp, res


def _record_handle_calls(monkeypatch):
    """Collect every event that reaches the scalar core handler."""
    calls = []
    handle = ProtocolCore.handle

    def recording_handle(core, now_h, event):
        calls.append(event)
        return handle(core, now_h, event)

    monkeypatch.setattr(ProtocolCore, "handle", recording_handle)
    return calls


def _fingerprint(exp, res):
    """Every observable a batch/scalar divergence could show up in.

    Floats are captured as ``repr`` so the comparison is bitwise, not
    tolerance-based.
    """
    cores = [exp.nodes[i].core for i in sorted(exp.nodes)]
    return {
        "events": res.events_dispatched,
        "transport": res.transport_stats,
        "jumps": [c.jumps for c in cores],
        "total_jump": [repr(c.total_jump) for c in cores],
        "L": [repr(c._L) for c in cores],
        "Lmax": [repr(c._Lmax) for c in cores],
        "h_last": [repr(c.h_last) for c in cores],
        "messages_sent": [c.messages_sent for c in cores],
        "gamma": [
            sorted(
                (u, repr(row.added_h), repr(row.l_est))
                for u, row in c.gamma._rows.items()
            )
            for c in cores
        ],
        "oracle": (
            None
            if res.oracle_report is None
            else (
                res.oracle_report.ok,
                res.oracle_report.checks,
                res.oracle_report.violation_count,
                repr(res.oracle_report.worst_margin),
            )
        ),
    }


PARITY_WORKLOADS = [
    ("sync_ring", lambda: configs.huge_sync_ring(64, horizon=120.0)),
    ("sync_grid", lambda: configs.huge_sync_grid(8, 8, horizon=60.0)),
    ("churn_ring", lambda: configs.huge_churn_ring(64, horizon=60.0)),
    # Constant policies under churn: the E_0 discovery burst and the start
    # tick group meet churn-seeded t=0 edges, mid-run flips and the
    # record-order replay fallback.
    (
        "churn_ring_constant",
        lambda: replace(
            configs.huge_churn_ring(64, clock_spec="split"),
            delay_spec="half",
            discovery_spec="max",
            stagger_ticks=False,
        ),
    ),
]


class TestParity:
    @pytest.mark.parametrize(
        "name,make", PARITY_WORKLOADS, ids=[w[0] for w in PARITY_WORKLOADS]
    )
    def test_batch_bit_identical_to_scalar(self, name, make, monkeypatch):
        exp_s, res_s = _run(make(), False, monkeypatch)
        exp_b, res_b = _run(make(), True, monkeypatch)
        assert exp_s.sim.batch_dispatches == 0
        assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)

    def test_batch_path_actually_engages(self, monkeypatch):
        """The sync workload must hit the vectorized phases, not fall back.

        Every same-timestamp run of the workload travels as one aggregate
        record (start tick group, E_0 discovery burst, delivery bursts,
        tick groups), so the proof of engagement is that no event -- not
        even ``Start`` or a discovery -- reaches the scalar core handler.
        """
        handle_calls = _record_handle_calls(monkeypatch)
        exp, res = _run(
            configs.huge_sync_ring(64, horizon=30.0), True, monkeypatch
        )
        table = exp.transport._batch_table
        assert table is not None and table is not False
        assert res.transport_stats["discoveries_delivered"] == 128
        assert handle_calls == []

    def test_churn_workload_falls_back_but_agrees(self, monkeypatch):
        """Churn defeats the bulk-send shortcut; record-order replay holds."""
        exp, _ = _run(configs.huge_churn_ring(64, horizon=60.0), True, monkeypatch)
        assert exp.transport.edge_flips > 0


class TestGating:
    def test_table_builds_for_sync_workload(self, monkeypatch):
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp = Experiment(configs.huge_sync_ring(16, horizon=5.0))
        table = build_node_array_table(exp.sim, exp.transport)
        assert table is not None
        assert len(table.drivers) == 16
        assert table.send_delay is not None  # constant positive delay

    def test_table_refuses_non_dcsa_cores(self, monkeypatch):
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp = Experiment(
            configs.huge_sync_ring(16, horizon=5.0, algorithm="max")
        )
        assert build_node_array_table(exp.sim, exp.transport) is None

    @pytest.mark.parametrize("traced", ["legacy", "spans"])
    def test_traced_run_falls_back_with_unchanged_results(
        self, traced, monkeypatch
    ):
        """Tracing keeps the t=0 wiring per node and per record.

        A legacy trace is visible at construction, so ``E_0`` is announced
        record by record; the span tracer attaches after the announcement,
        so the burst replays through the scalar discovery at dispatch.
        Either way every node dispatches ``Start`` itself, and the run's
        results equal the untraced batch run's.
        """
        from repro.tracing import trace_session

        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        make = lambda: configs.huge_sync_ring(32, horizon=20.0)
        exp_plain = Experiment(make())
        assert sorted(ev.kind for ev in exp_plain.sim.queue.live_events()) == [
            KIND_SAMPLE, KIND_TICK_BURST, KIND_DISCOVER_BURST,
        ]
        res_plain = exp_plain.run()
        if traced == "legacy":
            exp = Experiment(replace(make(), trace=True))
            kinds = [ev.kind for ev in exp.sim.queue.live_events()]
            assert kinds.count(KIND_DISCOVER) == 64
            assert KIND_DISCOVER_BURST not in kinds
            res = exp.run()
        else:
            with trace_session():
                exp = Experiment(make())
                kinds = [ev.kind for ev in exp.sim.queue.live_events()]
                assert kinds.count(KIND_DISCOVER_BURST) == 1
                res = exp.run()
        assert kinds.count(KIND_TIMER) == 32
        assert KIND_TICK_BURST not in kinds
        assert exp.transport._batch_table is False
        assert _fingerprint(exp, res) == _fingerprint(exp_plain, res_plain)

    def test_start_group_replays_when_table_declines_later(self, monkeypatch):
        """An observer attached after construction defeats the table.

        The start tick group was armed while the gate held; at dispatch
        the table declines (effect logs are per-event observers), so the
        group replays its constituents' timers through the scalar driver,
        logging every event, and the run equals the scalar one.
        """
        make = lambda: configs.huge_sync_ring(16, horizon=15.0)
        runs = []
        for batch in (False, True):
            monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", batch)
            exp = Experiment(make())
            for node in exp.nodes.values():
                node.effect_log = []
            res = exp.run()
            runs.append((exp, res))
        (exp_s, res_s), (exp_b, res_b) = runs
        assert exp_b.transport._batch_table is False
        assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
        for i in exp_s.nodes:
            assert exp_b.nodes[i].effect_log == exp_s.nodes[i].effect_log

    def test_maxsync_runs_unchanged_under_batch_default(self, monkeypatch):
        cfg = lambda: configs.huge_sync_ring(16, horizon=20.0, algorithm="max")
        _, res_s = _run(cfg(), False, monkeypatch)
        _, res_b = _run(cfg(), True, monkeypatch)
        assert res_b.events_dispatched == res_s.events_dispatched
        assert res_b.transport_stats == res_s.transport_stats


class TestEventKinds:
    def test_kind_tables_sized_consistently(self):
        assert len(KIND_NAMES) == N_KINDS
        assert len(POOLABLE) == N_KINDS
        assert KIND_NAMES[KIND_DELIVER_BURST] == "deliver_burst"
        assert KIND_NAMES[KIND_TICK_BURST] == "tick_burst"
        assert POOLABLE[KIND_DELIVER_BURST] and POOLABLE[KIND_TICK_BURST]

    def test_burst_records_expand_into_kind_counts(self, monkeypatch):
        """Dispatch tallies count constituents, never aggregate records."""
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", False)
        exp_s = Experiment(configs.huge_sync_ring(32, horizon=30.0))
        exp_s.sim.kind_counts = [0] * N_KINDS
        res_s = exp_s.run()
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp_b = Experiment(configs.huge_sync_ring(32, horizon=30.0))
        exp_b.sim.kind_counts = [0] * N_KINDS
        res_b = exp_b.run()
        assert res_b.events_dispatched == res_s.events_dispatched
        counts_s = exp_s.sim.kind_counts
        counts_b = exp_b.sim.kind_counts
        # Aggregate kinds net out to zero: each dispatch re-books its
        # cardinality as the constituent kind.
        assert counts_b[KIND_DELIVER_BURST] == 0
        assert counts_b[KIND_TICK_BURST] == 0
        assert counts_b[KIND_DISCOVER_BURST] == 0
        assert counts_b[KIND_DELIVER] == counts_s[KIND_DELIVER]
        assert counts_b[KIND_TIMER] == counts_s[KIND_TIMER]
        assert counts_b[KIND_DISCOVER] == counts_s[KIND_DISCOVER] == 64
        assert counts_b == counts_s

    def test_t0_wiring_cost_counters_pinned(self, monkeypatch):
        """Deterministic cost gate: exact queue and dispatch counts.

        The t=0 wiring is one start tick group and one E_0 discovery
        burst; the first tick splits the group per rate class; the
        greetings leave as one delivery burst.  What remains is one lost
        timer per directed edge (128) and a handful of group, burst and
        sample records.  The scalar kernel pushes 1249 records and
        allocates 449 for the same run.
        """
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp = Experiment(configs.huge_sync_ring(64, horizon=3.0))
        res = exp.run()
        assert exp.sim.queue.pushes == 149
        assert exp.sim.queue.allocations == 133
        assert res.events_dispatched == 801


class TestPopRun:
    def test_collects_contiguous_same_key_run(self):
        q = EventQueue()
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0, 1, None, None)
        b = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 1, 2, None, None)
        c = q.push_typed(1.0, PRIORITY_TIMER, KIND_TIMER, "n", "k")
        first = q.pop_until(2.0)
        assert first is a
        buf: list = []
        assert q.pop_run(first, buf) == 2
        assert buf == [a, b]
        assert q.pop_until(2.0) is c  # the timer was left alone

    def test_singleton_run_returns_zero_and_leaves_buffer(self):
        q = EventQueue()
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0, 1, None, None)
        q.push_typed(2.0, PRIORITY_DELIVERY, KIND_DELIVER, 1, 2, None, None)
        first = q.pop_until(3.0)
        buf: list = []
        assert q.pop_run(first, buf) == 0
        assert buf == []
        assert first is a

    def test_kind_boundary_ends_run_at_equal_key(self):
        """Same (time, priority) but different kind: never mixed in a run."""
        q = EventQueue()
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0, 1, None, None)
        b = q.push_typed(
            1.0, PRIORITY_DELIVERY, KIND_DELIVER_BURST, [0], [1], [None], 0.0
        )
        first = q.pop_until(2.0)
        assert first is a
        buf: list = []
        assert q.pop_run(first, buf) == 0
        assert q.pop_until(2.0) is b

    def test_cancelled_records_inside_run_dropped(self):
        q = EventQueue()
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0, 1, None, None)
        b = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 1, 2, None, None)
        c = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 2, 3, None, None)
        q.cancel(b)
        first = q.pop_until(2.0)
        buf: list = []
        assert q.pop_run(first, buf) == 2
        assert buf == [a, c]


class TestAdjustClocksBatch:
    def _cores(self, n, monkeypatch):
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp = Experiment(configs.huge_sync_ring(n, horizon=10.0))
        exp.run()
        return [exp.nodes[i].core for i in sorted(exp.nodes)]

    def _snap(self, cores):
        return [
            (repr(c._L), repr(c._Lmax), c.jumps, repr(c.total_jump))
            for c in cores
        ]

    def test_vector_path_matches_scalar_path(self, monkeypatch):
        """Above the size cutoff the numpy reduction must equal the loop.

        Two identical end-of-run populations (same config, same seed) are
        adjusted once through each code path; the resulting ``L`` / jump
        stats must agree bitwise.
        """
        a = self._cores(64, monkeypatch)  # >= _VECTOR_MIN: numpy path
        b = self._cores(64, monkeypatch)
        adjust_clocks_batch(a)
        for core in b:  # reference: one scalar adjust each
            adjust_clocks_batch([core])
        assert self._snap(a) == self._snap(b)

    def test_empty_gamma_population_uses_scalar_loop(self, monkeypatch):
        """Pre-discovery cores (no rows) must not break the vector path."""
        cores = self._cores(64, monkeypatch)
        cores[0].gamma._rows.clear()
        before = self._snap([cores[0]])
        adjust_clocks_batch(cores)  # empty Gamma: min over nothing = no-op
        assert self._snap([cores[0]])[0][:2] == before[0][:2]


@pytest.mark.slow
def test_huge_sync_ring_100k_smoke(monkeypatch):
    """The n=100k target scale: runs, engages the batch path, stays sane."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    handle_calls = _record_handle_calls(monkeypatch)
    exp = Experiment(
        configs.huge_sync_ring(100_000, horizon=3.0, sample_interval=1.0)
    )
    res = exp.run()
    table = exp.transport._batch_table
    assert table is not None and table is not False
    assert handle_calls == []
    assert res.events_dispatched > 1_000_000
    assert res.oracle_report is not None and res.oracle_report.ok
