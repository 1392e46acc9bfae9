"""Tests for the space-partitioned parallel backend (repro.sim.par).

The load-bearing guarantee is the **parity contract**: a genuinely
sharded run is bit-identical to the serial backend on the same config --
per-node clocks and estimates, jump counts and float totals, message
counters, event tallies, oracle reports.  The tests here pin that
contract across shard counts on the flagship sync workload, under
scripted churn that flips cross-shard edges mid-window, under the
streaming oracle, and property-based over randomly generated topologies
and churn scripts.  The partitioner, the fallback gate and the per-shard
telemetry get unit coverage alongside.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolCore, SystemParams
from repro.harness import configs
from repro.harness.registry import OracleRef, RuntimeRef
from repro.harness.runner import Experiment, ExperimentConfig, run_experiment
from repro.network.churn import ScriptedChurn
from repro.sim import par as par_mod
from repro.sim.events import KIND_TICK_BURST
from repro.sim.par import (
    ParNodeArrayTable,
    _build_worker_experiment,
    _merge_envelopes,
    genuine_shard_reason,
    run_par,
)
from repro.sim.partition import crossing_counts, partition_ranges
from repro.sim.simulator import SimulationError, Simulator
from repro.telemetry.registry import get_registry


def _ring_cfg(n=48, **overrides):
    """A small two-rate-class sync ring that genuinely shards."""
    params = SystemParams(
        n=n, rho=1e-4, max_delay=1.0, tick_interval=0.25, b0=20.0
    )
    base = dict(
        params=params,
        initial_edges=[(i, (i + 1) % n) for i in range(n)],
        algorithm="dcsa",
        clock_spec="split",
        delay_spec="half",
        discovery_spec="max",
        horizon=40.0,
        sample_interval=5.0,
        seed=7,
        record=False,
        stagger_ticks=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _fingerprint(cfg, res):
    """Every observable a shard-merge divergence could show up in.

    Floats are captured as ``repr`` so the comparison is bitwise, not
    tolerance-based.
    """
    n = cfg.params.n
    h = float(cfg.horizon)
    nodes = [res.nodes[i] for i in range(n)]
    return {
        "clock": [repr(nd.logical_clock(h)) for nd in nodes],
        "maxe": [repr(nd.max_estimate(h)) for nd in nodes],
        "jumps": [nd.jumps for nd in nodes],
        "total_jump": [repr(nd.total_jump) for nd in nodes],
        "messages_sent": [nd.messages_sent for nd in nodes],
        "transport": dict(res.transport_stats),
        "events": res.events_dispatched,
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


def _assert_parity(cfg, shard_counts=(1, 2, 4)):
    serial = Experiment(cfg).run()
    expected = _fingerprint(cfg, serial)
    for k in shard_counts:
        res = run_par(cfg, k)
        assert res.par_fallback_reason is None, res.par_fallback_reason
        assert res.par_shards == min(k, cfg.params.n)
        assert _fingerprint(cfg, res) == expected, f"shards={k}"
    return serial


# --------------------------------------------------------------------- #
# Partitioner units
# --------------------------------------------------------------------- #


class TestPartitioner:
    def test_single_shard_is_whole_range(self):
        assert partition_ranges(10, 1, [(0, 9)]) == [(0, 10)]

    def test_ranges_are_contiguous_and_cover(self):
        edges = [(i, (i + 1) % 64) for i in range(64)]
        ranges = partition_ranges(64, 4, edges)
        assert ranges[0][0] == 0 and ranges[-1][1] == 64
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c and a < b

    def test_cut_prefers_zero_crossing_boundary(self):
        # Two 8-node cliques joined nowhere: the only zero-crossing cut
        # near the middle is exactly at 8.
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        edges += [(u, v) for u in range(8, 16) for v in range(u + 1, 16)]
        assert partition_ranges(16, 2, edges) == [(0, 8), (8, 16)]
        assert crossing_counts(16, edges)[8] == 0

    def test_shard_count_clamps_to_population(self):
        ranges = partition_ranges(3, 8, [])
        assert ranges[0][0] == 0 and ranges[-1][1] == 3
        assert len(ranges) == 3

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            partition_ranges(0, 2, [])
        with pytest.raises(ValueError):
            partition_ranges(8, 0, [])


# --------------------------------------------------------------------- #
# Fallback gate
# --------------------------------------------------------------------- #


class TestGenuineShardGate:
    def test_sync_ring_is_genuine(self):
        assert genuine_shard_reason(_ring_cfg()) is None

    @pytest.mark.parametrize(
        "overrides,needle",
        [
            (dict(stagger_ticks=True), "stagger"),
            (dict(record=True), "record"),
            (dict(trace=True), "tracing"),
            (dict(delay_spec="uniform"), "delay_spec"),
            (dict(discovery_spec="uniform"), "discovery_spec"),
            (dict(clock_spec="drifting"), "clock_spec"),
        ],
        ids=["stagger", "record", "trace", "delay", "discovery", "clock"],
    )
    def test_unsupported_configs_are_named(self, overrides, needle):
        reason = genuine_shard_reason(_ring_cfg(**overrides))
        assert reason is not None and needle in reason

    def test_fallback_still_runs_and_records_reason(self):
        cfg = _ring_cfg(stagger_ticks=True)
        serial = Experiment(cfg).run()
        res = run_par(cfg, 2)
        assert res.par_fallback_reason is not None
        assert res.par_shards is None
        assert res.config is cfg
        assert _fingerprint(cfg, res) == _fingerprint(cfg, serial)


# --------------------------------------------------------------------- #
# Parity: bit-identical to serial
# --------------------------------------------------------------------- #


class TestParity:
    def test_sync_ring_bitwise_across_shard_counts(self):
        _assert_parity(_ring_cfg())

    def test_churn_flipping_cross_shard_edges_mid_window(self):
        # Boundary edges for K=2 (23-24), K=4 (11-12) and the ring wrap
        # (0-47), each removed and re-added at non-barrier times.
        churn = ScriptedChurn(
            [
                (3.1, "remove", 23, 24),
                (7.7, "add", 23, 24),
                (11.3, "remove", 11, 12),
                (13.9, "add", 11, 12),
                (17.2, "remove", 0, 47),
                (22.6, "add", 0, 47),
            ]
        )
        serial = _assert_parity(_ring_cfg(churn=(churn,)))
        # The flips must actually have dropped something for this test to
        # exercise the cross-shard shadow path.
        assert serial.transport_stats["dropped_removed"] > 0

    def test_tick_groups_split_inside_shards_bitwise(self):
        # Alternating rate classes put both classes into every shard, so
        # each shard's start group splits into one group per deadline.
        _assert_parity(_ring_cfg(clock_spec="alternating"))

    def test_discovery_zero_bitwise(self):
        _assert_parity(_ring_cfg(discovery_spec="zero"))

    def test_oracle_report_bitwise(self):
        cfg = _ring_cfg(oracle=OracleRef("standard", {"bound_scale": 3.0}))
        serial = _assert_parity(cfg, shard_counts=(2,))
        assert serial.oracle_report is not None

    def test_zero_cross_edge_shard(self):
        # Two disjoint 24-node rings: the partitioner cuts between them,
        # so one shard exchanges zero envelopes -- the degenerate barrier
        # protocol (empty flushes both ways) must still agree.
        n = 48
        edges = [(i, (i + 1) % 24) for i in range(24)]
        edges += [(24 + i, 24 + (i + 1) % 24) for i in range(24)]
        _assert_parity(_ring_cfg(initial_edges=edges), shard_counts=(2,))

    def test_runtime_ref_and_workload_wiring(self):
        cfg = configs.huge_sync_ring_1m(n=96, shards=2, horizon=10.0)
        assert isinstance(cfg.runtime, RuntimeRef)
        res = run_experiment(cfg)
        assert res.par_shards == 2
        assert res.par_fallback_reason is None
        serial = run_experiment(replace(cfg, runtime="sim"))
        assert res.events_dispatched == serial.events_dispatched

    def test_repro_shards_env_reroutes_sim_runtime(self, monkeypatch):
        cfg = _ring_cfg(n=24, horizon=20.0)
        serial = run_experiment(cfg)
        monkeypatch.setenv("REPRO_SHARDS", "2")
        res = run_experiment(cfg)
        assert res.par_shards == 2
        assert _fingerprint(cfg, res) == _fingerprint(cfg, serial)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_random_partitions_replay_bitwise(data):
    """Property: random topology + churn, shard-merged == serial.

    Configs are drawn to stay inside the genuine-shard gate (the point is
    to exercise the merge, not the fallback), with enough structural
    freedom -- random extra chords, random cross-boundary churn -- that
    ordering bugs in the envelope merge or the provenance keys surface as
    fingerprint diffs.
    """
    n = data.draw(st.integers(min_value=8, max_value=40), label="n")
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    extra = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] != e[1]),
            max_size=6,
        ),
        label="chords",
    )
    edges.update((min(u, v), max(u, v)) for u, v in extra)
    edge_list = sorted(edges)
    n_churn = data.draw(st.integers(0, 4), label="n_churn")
    events = []
    present = set(edge_list)
    t = 0.0
    for _ in range(n_churn):
        t += data.draw(
            st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False)
        )
        u, v = data.draw(st.sampled_from(edge_list))
        # A flip is only legal relative to the edge's current state.
        if (u, v) in present:
            present.discard((u, v))
            events.append((t, "remove", u, v))
        else:
            present.add((u, v))
            events.append((t, "add", u, v))
    churn = (ScriptedChurn(events),) if events else ()
    cfg = _ring_cfg(
        n=n,
        initial_edges=edge_list,
        churn=churn,
        horizon=25.0,
        seed=data.draw(st.integers(0, 2**20), label="seed"),
    )
    assert genuine_shard_reason(cfg) is None
    serial = Experiment(cfg).run()
    res = run_par(cfg, 2)
    assert res.par_fallback_reason is None
    assert _fingerprint(cfg, res) == _fingerprint(cfg, serial)


# --------------------------------------------------------------------- #
# Golden workloads under REPRO_SHARDS
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "make",
    [
        lambda: configs.static_path(8, horizon=60.0, seed=3),
        lambda: configs.backbone_churn(8, horizon=60.0, seed=5),
    ],
    ids=["static_path", "backbone_churn"],
)
def test_golden_workloads_bitwise_under_shards_env(make, monkeypatch):
    cfg = make()
    baseline = run_experiment(cfg)
    for k in ("1", "2", "4"):
        monkeypatch.setenv("REPRO_SHARDS", k)
        res = run_experiment(make())
        assert res.max_global_skew == baseline.max_global_skew
        assert res.max_local_skew == baseline.max_local_skew
        assert res.total_jumps() == baseline.total_jumps()
        assert res.events_dispatched == baseline.events_dispatched


# --------------------------------------------------------------------- #
# Batch-kernel gating diagnostics
# --------------------------------------------------------------------- #


class TestGateDiagnostics:
    def test_churn_records_scalar_path_reason(self):
        churn = ScriptedChurn([(3.0, "remove", 5, 6), (9.0, "add", 5, 6)])
        res = run_par(_ring_cfg(churn=(churn,)), 2)
        assert res.batch_gate_reason is not None
        assert "churn" in res.batch_gate_reason
        assert "batch kernel declined" in res.summary()

    def test_sync_workload_keeps_batch_kernel(self):
        res = run_par(_ring_cfg(), 2)
        assert res.batch_gate_reason is None
        assert "parallel backend: 2 shards" in res.summary()

    def test_fallback_reason_lands_in_summary(self):
        res = run_par(_ring_cfg(record=True), 2)
        assert res.par_fallback_reason is not None
        assert "parallel fallback" in res.summary()


class TestWorkerBatchedStart:
    """Shard workers take the serial kernel's batched t=0 path."""

    def test_worker_never_reaches_the_scalar_core(self, monkeypatch):
        calls = []
        handle = ProtocolCore.handle

        def spy(self, now_h, event):
            calls.append(type(event).__name__)
            return handle(self, now_h, event)

        monkeypatch.setattr(ProtocolCore, "handle", spy)
        cfg = configs.huge_sync_ring(64, horizon=10.0)
        sim, transport, _graph, nodes = _build_worker_experiment(
            cfg, 0, 32, frozenset({0, 31})
        )
        assert len(nodes) == 32
        sim.run_until(float(cfg.horizon))
        assert isinstance(transport._batch_table, ParNodeArrayTable)
        assert transport._envelopes  # the remote half was sent to
        assert calls == []

    def test_tick_groups_split_per_deadline_inside_a_shard(self):
        cfg = _ring_cfg(clock_spec="alternating")
        sim, transport, _graph, _nodes = _build_worker_experiment(
            cfg, 0, 24, frozenset({0, 23})
        )
        # The start group fires at t=0 and re-arms one group per rate class.
        sim.run_until(0.0)
        assert isinstance(transport._batch_table, ParNodeArrayTable)
        groups = [
            ev for ev in sim.queue.live_events() if ev.kind == KIND_TICK_BURST
        ]
        assert sorted(len(ev.a) for ev in groups) == [12, 12]
        assert len({ev.time for ev in groups}) == 2


class TestDeadWorker:
    def test_worker_exit_without_report_names_the_shard(self, monkeypatch):
        """A worker that dies silently (OOM kill, ``os._exit``) is named.

        The patched target is inherited by the forked workers; shard 1
        exits before reporting anything.
        """
        worker_main = par_mod._worker_main

        def dying(cfg, lo, hi, *rest):
            if lo != 0:
                os._exit(3)
            worker_main(cfg, lo, hi, *rest)

        monkeypatch.setattr(par_mod, "_worker_main", dying)
        cfg = _ring_cfg(n=24, horizon=10.0)
        lo, hi = partition_ranges(24, 2, cfg.initial_edges)[1]
        with pytest.raises(RuntimeError) as err:
            run_par(cfg, 2)
        msg = str(err.value)
        assert "worker 1" in msg
        assert f"nodes [{lo}, {hi})" in msg
        assert "code 3" in msg


class TestLookaheadInvariant:
    def test_past_dated_envelope_raises_named_error(self):
        """The merge step refuses an envelope delivering before the barrier.

        An explicit :class:`SimulationError` (not an ``assert``) so the
        check survives ``python -O``; the message names the envelope.
        """
        sim = Simulator()
        sim.run_until(5.0)
        envelope = (4.5, (4.0, 2, 0.0, 1, 3, 0), 3, 7, (1.0, 1.0), 4.0)
        with pytest.raises(SimulationError) as err:
            _merge_envelopes(sim, [envelope], 5.0)
        msg = str(err.value)
        assert "3->7" in msg and "t=4.5" in msg and "barrier t=5.0" in msg
        assert "(4.0, 2, 0.0, 1, 3, 0)" in msg
        assert len(sim.queue) == 0

    def test_envelopes_at_or_past_the_barrier_merge(self):
        sim = Simulator()
        sim.run_until(5.0)
        envelopes = [
            (5.0, (4.5, 2, 0.0, 1, 3, 0), 3, 7, (1.0, 1.0), 4.5),
            (5.5, (5.0, 2, 0.0, 1, 3, 0), 3, 7, (1.5, 1.5), 5.0),
        ]
        _merge_envelopes(sim, envelopes, 5.0)
        assert len(sim.queue) == 2


# --------------------------------------------------------------------- #
# Per-shard telemetry
# --------------------------------------------------------------------- #


class TestTelemetry:
    def test_per_shard_metrics_surface(self):
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            res = run_par(_ring_cfg(), 2)
            assert res.par_shards == 2
            snap = reg.snapshot()
        finally:
            reg.disable()
            reg.reset()
        counters = snap["counters"]
        gauges = snap["gauges"]
        assert gauges["par.shards"] == 2
        assert counters["par.shard0.events"] > 0
        assert counters["par.shard1.events"] > 0
        assert counters["par.shard0.envelopes_out"] > 0
        assert counters["par.shard1.envelopes_in"] > 0
        assert 0.0 < gauges["par.utilization"] <= 1.0
        assert gauges["par.shard0.busy_seconds"] > 0.0

    def test_no_metrics_without_registry(self):
        # Blank-beats-nonsense: with no ambient registry the run must not
        # create one as a side effect.
        reg = get_registry()
        reg.reset()
        run_par(_ring_cfg(n=24, horizon=20.0), 2)
        snap = reg.snapshot()
        assert not any(k.startswith("par.") for k in snap["counters"])
        assert not any(k.startswith("par.") for k in snap["gauges"])
