"""Tests for the telemetry subsystem (registry, sampler, schema, top).

The load-bearing guarantees:

* **Neutrality** — attaching the full telemetry stack (ambient registry,
  instrumented kernel/transport/oracle, background sampler, flight
  recorder) leaves every deterministic run metric bit-identical.  The
  sampler is a neutral observer like the streaming oracle: it must never
  schedule events or draw from run RNG streams.
* **Schema** — every frame the sampler emits validates against the
  versioned frame schema (`repro.telemetry.schema`), so `repro top` and
  external tooling can trust the JSONL stream.
* **Overhead** — full instrumentation plus a fast sampler stays within a
  few percent of the uninstrumented wall-clock on the acceptance-scale
  workload (slow-marked; exercised in CI).
"""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.harness import configs, run_experiment
from repro.telemetry import (
    FlightRecorder,
    FrameError,
    Histogram,
    MetricsRegistry,
    TelemetrySampler,
    build_frame,
    get_registry,
    read_frames,
    render_snapshot,
    validate_frame,
)
from repro.telemetry.top import follow_frames


@pytest.fixture
def registry() -> MetricsRegistry:
    """A fresh, enabled, non-global registry."""
    reg = MetricsRegistry()
    reg.enable()
    return reg


@pytest.fixture
def ambient():
    """The process-wide registry, enabled for one test and always torn down."""
    reg = get_registry()
    reg.reset()
    reg.enable()
    try:
        yield reg
    finally:
        reg.disable()
        reg.reset()


# --------------------------------------------------------------------- #
# Registry instruments
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_counter_and_gauge(self, registry):
        c = registry.counter("x.count")
        c.inc()
        c.inc(2.5)
        g = registry.gauge("x.level")
        g.set(7.0)
        snap = registry.snapshot()
        assert snap["counters"]["x.count"] == 3.5
        assert snap["gauges"]["x.level"] == 7.0

    def test_instruments_are_shared_by_name(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_histogram_bucketing(self):
        h = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 5000.0):
            h.observe(v)
        # <=1 | <=10 | <=100 | overflow
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert sum(h.counts) == h.count
        assert h.max == 5000.0
        assert h.mean == pytest.approx(sum((0.5, 1.0, 5.0, 50.0, 5000.0)) / 5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_polled_readbacks_and_overwrite(self, registry):
        registry.counter_fn("poll.c", lambda: 41)
        registry.counter_fn("poll.c", lambda: 42)  # re-wire overwrites
        registry.gauge_fn("poll.g", lambda: 1.5)
        snap = registry.snapshot()
        assert snap["counters"]["poll.c"] == 42
        assert snap["gauges"]["poll.g"] == 1.5

    def test_snapshot_sanitizes_and_survives_raises(self, registry):
        registry.gauge("bad.inf").set(math.inf)
        registry.gauge_fn("bad.nan", lambda: math.nan)
        registry.gauge_fn("bad.str", lambda: "oops")
        registry.counter_fn("bad.raise", lambda: 1 / 0)
        snap = registry.snapshot()
        assert snap["gauges"]["bad.inf"] is None
        assert snap["gauges"]["bad.nan"] is None
        assert snap["gauges"]["bad.str"] is None
        assert "bad.raise" not in snap["counters"]
        # The sanitized snapshot must be a valid frame payload.
        validate_frame(
            {
                "v": 1,
                "seq": 0,
                "t_wall": 0.0,
                "source": "t",
                **snap,
            }
        )

    def test_reset_drops_everything(self, registry):
        registry.counter("a").inc()
        registry.counter_fn("b", lambda: 1)
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}


# --------------------------------------------------------------------- #
# Frame schema
# --------------------------------------------------------------------- #


def _valid_frame() -> dict:
    return {
        "v": 1,
        "seq": 3,
        "t_wall": 1.25,
        "source": "run:test",
        "counters": {"kernel.events_dispatched": 10},
        "gauges": {"kernel.queue_depth": 4, "oracle.worst_margin.skew": None},
        "histograms": {
            "proc.gc_pause_s": {
                "bounds": [0.001, 0.01],
                "counts": [2, 1, 0],
                "count": 3,
                "total": 0.004,
                "max": 0.002,
            }
        },
    }


class TestSchema:
    def test_valid_frame_passes(self):
        validate_frame(_valid_frame())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda f: f.pop("seq"),
            lambda f: f.__setitem__("v", 99),
            lambda f: f.__setitem__("seq", -1),
            lambda f: f.__setitem__("t_wall", -0.5),
            lambda f: f.__setitem__("counters", {"c": -1}),
            lambda f: f.__setitem__("gauges", {"g": "high"}),
            lambda f: f["histograms"]["proc.gc_pause_s"].__setitem__(
                "counts", [1, 1]
            ),
            lambda f: f["histograms"]["proc.gc_pause_s"].__setitem__(
                "bounds", [0.01, 0.001]
            ),
            lambda f: f["histograms"]["proc.gc_pause_s"].__setitem__("count", 99),
        ],
        ids=[
            "missing-seq",
            "wrong-version",
            "negative-seq",
            "negative-t-wall",
            "negative-counter",
            "non-numeric-gauge",
            "counts-length",
            "unsorted-bounds",
            "count-mismatch",
        ],
    )
    def test_invalid_frames_fail(self, mutate):
        frame = _valid_frame()
        mutate(frame)
        with pytest.raises(FrameError):
            validate_frame(frame)


# --------------------------------------------------------------------- #
# Flight recorder + sampler
# --------------------------------------------------------------------- #


class TestFlightRecorder:
    def test_round_trip(self, registry, tmp_path):
        registry.counter("c").inc(5)
        path = str(tmp_path / "m.jsonl")
        with FlightRecorder(path) as rec:
            rec(build_frame(registry, 0, 0.0, "t"))
            rec(build_frame(registry, 1, 0.5, "t"))
            assert rec.frames_written == 2
        frames = read_frames(path)  # validates every frame
        assert [f["seq"] for f in frames] == [0, 1]
        assert frames[-1]["counters"]["c"] == 5
        rec.close()  # idempotent

    def test_follow_frames_buffers_partial_tail(self, tmp_path):
        path = tmp_path / "m.jsonl"
        whole = json.dumps(_valid_frame())
        path.write_text(whole + "\n" + whole[: len(whole) // 2])
        with open(path, "r", encoding="utf-8") as fh:
            assert len(list(follow_frames(fh))) == 1
            # Writer finishes the second line: the partial tail was left
            # buffered at the file position, so it now parses whole.
            with open(path, "a", encoding="utf-8") as wfh:
                wfh.write(whole[len(whole) // 2 :] + "\n")
            assert len(list(follow_frames(fh))) == 1

    def test_follow_frames_restarts_after_truncate_in_place(self, tmp_path):
        path = tmp_path / "m.jsonl"
        frame = _valid_frame()
        frame["counters"] = {"kernel.events_dispatched": 11111111}
        path.write_text(json.dumps(frame) + "\n" + json.dumps(frame) + "\n")
        with open(path, "r", encoding="utf-8") as fh:
            assert len(list(follow_frames(fh))) == 2
            # Rotation: the writer truncates and starts a fresh (shorter)
            # stream.  Our position is now beyond EOF; the tail must
            # restart from offset 0 instead of waiting forever.
            fresh = _valid_frame()
            fresh["seq"] = 0
            with open(path, "w", encoding="utf-8") as wfh:
                wfh.write(json.dumps(fresh) + "\n")
            got = list(follow_frames(fh))
            assert [f["seq"] for f in got] == [0]

    def test_follow_frames_skips_torn_mid_file_frame(self, tmp_path):
        """A rotation race can leave a *complete* line of garbage mid-file.

        Unlike a partial tail (no newline yet -- buffered and retried),
        a torn line that did get its newline will never become valid
        JSON.  The reader must skip it and resume at the next frame
        rather than raise out of the tail loop.
        """
        path = tmp_path / "m.jsonl"
        a, b = _valid_frame(), _valid_frame()
        a["seq"], b["seq"] = 0, 1
        torn = json.dumps(_valid_frame())[: 20] + "}garbage"
        path.write_text(
            json.dumps(a) + "\n" + torn + "\n" + json.dumps(b) + "\n"
        )
        with open(path, "r", encoding="utf-8") as fh:
            got = list(follow_frames(fh))
            assert [f["seq"] for f in got] == [0, 1]
            # The tail position is past the torn region: appends flow.
            with open(path, "a", encoding="utf-8") as wfh:
                wfh.write(json.dumps(_valid_frame()) + "\n")
            assert len(list(follow_frames(fh))) == 1

    def test_follow_frames_truncation_with_buffered_partial_tail(self, tmp_path):
        path = tmp_path / "m.jsonl"
        big = _valid_frame()
        big["source"] = "run:" + "pad" * 100  # longer than the fresh stream
        whole = json.dumps(_valid_frame())
        # A complete frame plus a torn tail the writer never finishes.
        path.write_text(json.dumps(big) + "\n" + whole[: len(whole) // 2])
        with open(path, "r", encoding="utf-8") as fh:
            assert len(list(follow_frames(fh))) == 1  # tail stays buffered
            with open(path, "w", encoding="utf-8") as wfh:
                wfh.write(whole + "\n")
            # File shrank below the buffered position mid-frame: restart.
            got = list(follow_frames(fh))
            assert [f["source"] for f in got] == ["run:test"]
            # And the restarted position keeps tailing appends normally.
            with open(path, "a", encoding="utf-8") as wfh:
                wfh.write(whole + "\n")
            assert len(list(follow_frames(fh))) == 1


class TestSampler:
    def test_emits_first_and_last_frames(self, registry, tmp_path):
        path = str(tmp_path / "m.jsonl")
        rec = FlightRecorder(path)
        sampler = TelemetrySampler(
            registry, interval=0.02, sink=rec, source="t", keep_frames=True
        )
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        registry.counter("work").inc(3)
        time.sleep(0.08)
        sampler.stop()
        sampler.stop()  # idempotent
        rec.close()
        frames = read_frames(path)
        assert frames[0]["seq"] == 0
        assert [f["seq"] for f in frames] == list(range(len(frames)))
        assert len(frames) >= 2  # start + at least the stop frame
        assert sampler.first_frame == frames[0]
        assert sampler.last_frame["counters"]["work"] == 3
        assert all(f["source"] == "t" for f in frames)
        assert sampler.frames is not None
        assert len(sampler.frames) == len(frames)

    def test_gc_watcher_uninstalls(self, registry):
        import gc

        sampler = TelemetrySampler(registry, interval=5.0, source="t")
        n0 = len(gc.callbacks)
        sampler.start()
        assert len(gc.callbacks) == n0 + 1
        sampler.stop()
        assert len(gc.callbacks) == n0

    def test_rejects_bad_interval(self, registry):
        with pytest.raises(ValueError):
            TelemetrySampler(registry, interval=0.0)


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #


class TestRender:
    def test_snapshot_table_and_derived_lines(self):
        prev = _valid_frame()
        frame = _valid_frame()
        frame["seq"] = 4
        frame["t_wall"] = 2.25
        frame["counters"] = {
            "kernel.events_dispatched": 1000,
            "kernel.record_pushes": 1000,
            "kernel.record_allocations": 100,
            "transport.sent": 500,
            "transport.delivered": 400,
        }
        out = render_snapshot(frame, prev)
        assert "kernel.events_dispatched" in out
        assert "events/sec: 990" in out  # (1000 - 10) / 1s
        assert "event-pool hit rate: 90.00%" in out
        assert "delivery ratio: 80.00%" in out
        assert "oracle.worst_margin.skew" in out  # None gauge renders as "-"


class TestTopCommand:
    """`repro top` against a fixture metrics file (one-shot render)."""

    @staticmethod
    def _write_fixture(path):
        first = _valid_frame()
        first["seq"], first["t_wall"] = 0, 0.0
        first["counters"] = {"kernel.events_dispatched": 10}
        last = _valid_frame()
        last["seq"], last["t_wall"] = 4, 2.0
        last["counters"] = {
            "kernel.events_dispatched": 1010,
            "transport.sent": 200,
            "transport.delivered": 150,
        }
        path.write_text(
            json.dumps(first) + "\n" + json.dumps(last) + "\n",
            encoding="utf-8",
        )

    def test_one_shot_renders_final_frame_with_rates(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.jsonl"
        self._write_fixture(path)
        assert main(["top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kernel.events_dispatched" in out
        assert "1,010" in out  # final counter value, grouped
        assert "events/sec: 500" in out  # (1010 - 10) / 2s
        assert "delivery ratio: 75.00%" in out
        assert "kernel.queue_depth" in out  # gauges table

    def test_empty_and_invalid_files_fail_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["top", str(empty)]) == 1
        assert "no frames" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a frame"}\n', encoding="utf-8")
        assert main(["top", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Neutrality: telemetry must not perturb the physics
# --------------------------------------------------------------------- #

#: The golden workloads (mirrors tests/test_golden_values.py).
WORKLOADS = [
    ("static_path", lambda: configs.static_path(8, horizon=60.0, seed=3)),
    ("backbone_churn", lambda: configs.backbone_churn(8, horizon=60.0, seed=5)),
    ("adversarial_drift", lambda: configs.adversarial_drift(8, horizon=60.0, seed=7)),
]


class TestNeutrality:
    @pytest.mark.parametrize("name,make", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    def test_metrics_identical_with_telemetry_on(self, name, make, tmp_path):
        baseline = run_experiment(make())

        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            rec = FlightRecorder(str(tmp_path / "m.jsonl"))
            sampler = TelemetrySampler(reg, interval=0.01, sink=rec, source=name)
            sampler.start()
            observed = run_experiment(make())
            sampler.stop()
            rec.close()
        finally:
            reg.disable()
            reg.reset()

        # Bit-identical, not approx: the sampler is a pure observer.
        assert observed.max_global_skew == baseline.max_global_skew
        assert observed.max_local_skew == baseline.max_local_skew
        assert observed.total_jumps() == baseline.total_jumps()
        assert observed.events_dispatched == baseline.events_dispatched

        # And the instrumentation really was live: the final frame agrees
        # with the run's own event count.
        last = sampler.last_frame
        assert last is not None
        assert (
            last["counters"]["kernel.events_dispatched"]
            == observed.events_dispatched
        )
        for frame in read_frames(str(tmp_path / "m.jsonl")):
            validate_frame(frame)


@pytest.mark.slow
def test_sampler_overhead_smoke(tmp_path):
    """Full instrumentation + fast sampler costs < 5% on huge_ring n=512.

    Min-of-three wall-clock per arm (interleaved) to shrug off scheduler
    noise; the absolute slack term covers sub-second jitter on loaded CI
    runners without masking a real per-event regression.
    """
    make = lambda: configs.huge_ring(512, horizon=30.0, seed=1)

    def timed_run() -> float:
        t0 = time.perf_counter()
        run_experiment(make())
        return time.perf_counter() - t0

    off: list[float] = []
    on: list[float] = []
    reg = get_registry()
    for _ in range(3):
        reg.disable()
        reg.reset()
        off.append(timed_run())
        reg.reset()
        reg.enable()
        sampler = TelemetrySampler(
            reg,
            interval=0.05,
            sink=FlightRecorder(str(tmp_path / "m.jsonl")),
            source="huge_ring",
        )
        sampler.start()
        try:
            on.append(timed_run())
        finally:
            sampler.stop()
            reg.disable()
            reg.reset()
    assert min(on) <= min(off) * 1.05 + 0.05, (
        f"telemetry overhead too high: on={min(on):.3f}s off={min(off):.3f}s"
    )
