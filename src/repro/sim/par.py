"""Space-partitioned parallel simulation backend with delay-bound lookahead.

The serial kernel dispatches every event of the execution in one process.
For large populations under *constant* message delay there is exploitable
structure: a message sent at time ``s`` cannot be delivered before
``s + c`` (``c`` = the constant delay), so two regions of the graph cannot
influence each other within any window shorter than ``c``.  This module
runs ``K`` contiguous node shards as full-replica simulations in forked
worker processes, synchronised by conservative lookahead windows:

* **Partitioning** (:mod:`repro.sim.partition`): node ids are split into
  ``K`` contiguous ranges chosen to minimise the number of *union* edges
  (initial edges plus every edge any scripted churn event ever touches)
  crossing a shard boundary.
* **Lookahead windows**: barriers are placed on the multiples of ``c/2``
  plus every oracle sample time plus ``{0, horizon}``, so every window is
  at most ``c/2`` wide.  A message sent inside window ``(b_{j-1}, b_j]``
  delivers at ``s + c > b_j + c/2``, strictly past the barrier at which it
  is flushed -- cross-shard sends therefore travel as timestamped
  *envelopes*, exchanged at the barrier, and always arrive in the
  destination shard's future.
* **Replication**: each worker builds the *full* graph, all ``n`` hardware
  clocks (consuming the shared RNG streams exactly as the serial harness
  does) and the complete churn script, but constructs node automatons only
  for its own range.  Topology and discovery therefore replay identically
  everywhere; only node events (deliveries, timers) are partitioned.
* **Sampling**: at each barrier that is also a sample time, workers write
  their nodes' ``L``/``Lmax`` columns into a shared-memory block; the
  coordinator process runs the unmodified
  :class:`~repro.oracle.oracle.StreamingOracle` against lightweight
  :class:`ShmNodeView` proxies over that block.

**Parity contract (bit-identical to serial).**  The merged execution must
be indistinguishable from the serial one, which requires cross-shard
deliveries to merge into each shard's event stream at exactly their serial
tie-break position.  Local sequence numbers cannot provide that (each
shard numbers only its own pushes), so every ``PRIORITY_DELIVERY`` record
is pushed via :meth:`~repro.sim.queue.EventQueue.push_keyed` with a
*global provenance key*: the flattened heap key of the dispatch that
emitted it, extended by a per-dispatch emission counter.  Dispatch-context
prefixes (``ParTransport._gp``) are:

* setup phase (initial-edge announcement): ``(0.0, -1)``;
* topology dispatch: ``(t, 0, topology_index)`` -- the per-transport
  topology counter is identical in every shard because churn replays
  everywhere;
* delivery/discovery dispatch: ``(t, 1) + record_key`` -- the parent's own
  flattened heap position;
* timer dispatch: ``(t, 2, arm_time, phase, node_id)`` -- arm time and a
  setup/run phase bit ride in the timer record's free ``d``/``e`` slots
  (see :meth:`repro.core.node.ClockSyncNode._arm_timer`); under constant
  rates and unstaggered ticks this tuple ranks timer dispatches exactly
  as their serial sequence numbers would.

An aggregate record's constituent dispatches under the prefix of the
individual record it replaces (see :func:`_dispatch_prefix`).

The middle elements are the event priority constants, so prefixes from
different dispatch classes at one timestamp sort in dispatch order.
``KIND_TIMER``/``KIND_TOPOLOGY``/``KIND_SAMPLE`` records keep ordinary
integer sequence numbers: those classes are never merged across shards,
and heap comparisons resolve on ``(time, priority)`` before ever touching
a key, so integer and tuple keys never meet.

**Cross-shard drop semantics.**  Under churn, a delivery's drop predicate
(edge removed while in flight) must be evaluated on the *sending* shard
too, because the sender schedules the absence discovery.  Each envelope
therefore leaves a sender-local :data:`~repro.sim.events.KIND_PAR_SHADOW`
record at the same ``(time, priority, key)``; graph replicas are
identical, so both sides agree on the predicate: the receiver delivers or
silently drops, the sender counts ``dropped_removed`` and schedules the
discovery.

**Batch kernel under shards.**  Each shard runs the serial batch kernel
(:mod:`repro.core.batch`) over its own node range, from the batched
``t = 0`` wiring on.  :class:`ParNodeArrayTable` overrides only the
kernel's emission step and routes each bulk send by destination:
*interior* locals (no remote union-edge neighbour) join one keyed burst,
*frontier* locals get individual keyed records -- an incoming envelope
could sort between two of a burst's constituents, while interior
destinations never receive envelopes and deliveries to distinct
destinations commute -- and remote destinations become envelopes.
Scripted churn forces the scalar path (the gate records a reason), which
is exact by construction.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import traceback
from dataclasses import replace
from multiprocessing.connection import Connection
from multiprocessing.sharedctypes import RawArray
from typing import TYPE_CHECKING, Any, Callable, Iterator, cast

import numpy as np

from ..core.batch import (
    REASON_KEY,
    NodeArrayTable,
    build_node_array_table,
    start_ticks,
)
from ..network.churn import ScriptedChurn
from ..network.graph import DynamicGraph
from ..network.transport import Transport
from .clocks import validate_drift
from .events import (
    KIND_DELIVER,
    KIND_DELIVER_BURST,
    KIND_DISCOVER,
    KIND_DISCOVER_BURST,
    KIND_PAR_SHADOW,
    KIND_TICK_BURST,
    KIND_TIMER,
    KIND_TOPOLOGY,
    N_KINDS,
    PRIORITY_DELIVERY,
    ScheduledEvent,
)
from .partition import partition_ranges
from .rng import RngFactory
from .simulator import SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..core.node import ClockSyncNode
    from ..harness.runner import ExperimentConfig, RunResult

__all__ = [
    "run_par",
    "genuine_shard_reason",
    "ParTransport",
    "ParNodeArrayTable",
    "ShmNodeView",
]

#: Global provenance key: a tuple comparable against every other key of its
#: ``(time, priority)`` class (see module docstring).
GKey = tuple[Any, ...]

#: Cross-shard message envelope:
#: ``(t_deliver, key, u, v, payload, send_time)``.
Envelope = tuple[float, GKey, int, int, Any, float]

#: Barrier-count cap: a genuine sharded run pays one IPC round trip per
#: window, so a pathological horizon/delay ratio falls back to serial.
_MAX_WINDOWS = 2_000_000

_STAT_FIELDS = (
    "sent",
    "delivered",
    "dropped_no_edge",
    "dropped_removed",
    "discoveries_delivered",
    "discoveries_skipped",
)


def genuine_shard_reason(cfg: "ExperimentConfig") -> str | None:
    """Why ``cfg`` cannot run genuinely sharded (``None`` = it can).

    The parallel backend requires the execution ingredients that make the
    ``c/2`` lookahead and the provenance-key scheme sound: constant
    positive message delay, constant discovery latency, constant-rate
    clocks with deterministic assignment, no per-event observers, and
    churn that replays identically in every shard.  Anything else falls
    back to the serial backend with the returned reason recorded on
    ``RunResult.par_fallback_reason``.
    """
    if not isinstance(cfg.delay_spec, str) or cfg.delay_spec not in ("max", "half"):
        return "delay_spec must be the constant 'max' or 'half' policy"
    params = cfg.params
    if params.max_delay <= 0.0:
        return "max_delay must be positive (it sets the lookahead window)"
    c = params.max_delay if cfg.delay_spec == "max" else 0.5 * params.max_delay
    if float(cfg.horizon) / c > _MAX_WINDOWS:
        return "horizon/delay ratio needs too many lookahead windows"
    if not isinstance(cfg.discovery_spec, str) or cfg.discovery_spec not in (
        "max",
        "zero",
    ):
        return "discovery_spec must be the constant 'max' or 'zero' policy"
    if not isinstance(cfg.clock_spec, str) or cfg.clock_spec not in (
        "split",
        "alternating",
        "uniform",
        "perfect",
    ):
        return (
            "clock_spec must be a constant-rate spec "
            "(split/alternating/uniform/perfect)"
        )
    if cfg.stagger_ticks:
        return "staggered first ticks are not supported by the parallel backend"
    if cfg.adversary is not None:
        return "adversaries require the serial backend"
    if cfg.trace:
        return "structured tracing requires the serial backend"
    if cfg.record:
        return "the SkewRecorder requires the serial backend (disable record)"
    from ..tracing.context import active_tracer

    if active_tracer() is not None:
        return "causal tracing is active"
    for proc in cfg.churn:
        if not isinstance(proc, ScriptedChurn):
            return "only ScriptedChurn replays identically across shards"
    return None


class ParTransport(Transport):
    """Shard-local transport with global provenance keys and envelopes.

    One instance runs inside each worker over a *full* graph replica but
    with only the shard's nodes registered.  Every ``PRIORITY_DELIVERY``
    push is keyed at its global serial position (see module docstring);
    sends to non-local destinations are buffered as :data:`Envelope` rows
    and flushed by the worker at each barrier.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        *,
        delay_policy: Any,
        discovery_policy: Any,
        max_delay: float,
        discovery_bound: float,
        frontier: frozenset[int],
        shadows: bool,
    ) -> None:
        #: Dispatch-context prefix and per-dispatch emission counter (the
        #: global key of the next keyed push is ``_gp + (_gc,)``).
        self._gp: GKey = (0.0, -1)
        self._gc = 0
        #: Topology dispatch counter; identical in every shard because the
        #: full churn script replays everywhere in the same order.
        self._topo_idx = 0
        #: Local nodes with at least one remote union-edge neighbour; only
        #: these can receive envelopes, so only these are excluded from
        #: burst aggregation.
        self._frontier = frontier
        #: Whether cross-shard sends leave sender-side shadow records
        #: (needed only when churn can drop in-flight messages).
        self._shadows = shadows
        self._envelopes: list[Envelope] = []
        super().__init__(
            sim,
            graph,
            delay_policy=delay_policy,
            discovery_policy=discovery_policy,
            max_delay=max_delay,
            discovery_bound=discovery_bound,
        )
        sim.set_handler(KIND_PAR_SHADOW, self._handle_par_shadow)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, u: int, v: int, payload: Any) -> None:
        """Keyed mirror of :meth:`Transport.send` (tracing is gated off)."""
        now = self.sim.now
        self.stats.sent += 1
        if not self._has_edge(u, v):
            self.stats.dropped_no_edge += 1
            self._schedule_absence_discovery(u, v, send_time=now)
            return
        delay = self.delay_policy.delay(u, v, now)
        if delay < 0.0 or delay > self.max_delay + 1e-9:
            raise ValueError(
                f"delay policy produced {delay!r} outside [0, {self.max_delay}]"
            )
        t_deliver = now + delay
        link = (u, v)
        fifo = self._fifo_last
        prev = fifo.get(link, 0.0)
        if t_deliver < prev:
            t_deliver = prev  # FIFO clamp; see Transport.send
        fifo[link] = t_deliver
        key = self._gp + (self._gc,)
        self._gc += 1
        if v in self._nodes:
            self.sim.queue.push_keyed(
                t_deliver, PRIORITY_DELIVERY, key, KIND_DELIVER, u, v, payload,
                now, None, "deliver", e=-1,
            )
        else:
            self._envelopes.append((t_deliver, key, u, v, payload, now))
            if self._shadows:
                # Sender-side drop-predicate mirror at the same global
                # position as the remote delivery (see module docstring).
                self.sim.queue.push_keyed(
                    t_deliver, PRIORITY_DELIVERY, key, KIND_PAR_SHADOW, u, v,
                    payload, now, None, "shadow",
                )

    # ------------------------------------------------------------------ #
    # Discovery
    # ------------------------------------------------------------------ #

    def _push_discover_burst(
        self, t: float, nodes: list[int], others: list[int]
    ) -> None:
        # Each constituent keeps the key its individual announcement would
        # have consumed (see _schedule_discovery): its ordinal in the full
        # stream -- both endpoints of every edge, in edge order -- which is
        # the same in every shard.  The ordinals ride in the free c slot.
        mine = self._nodes
        base = self._gc
        stream = [x for edge in self.graph.edges() for x in edge]
        ords = [base + k for k, x in enumerate(stream) if x in mine]
        self._gc = base + len(stream)
        self.sim.queue.push_keyed(
            t, PRIORITY_DELIVERY, self._gp + (ords[0],), KIND_DISCOVER_BURST,
            nodes, others, ords, None, None, "discover+", e=len(nodes),
        )

    def _schedule_discovery(
        self, node_id: int, other: int, *, added: bool, change_time: float
    ) -> None:
        if node_id not in self._nodes:
            # Burn the key the owning shard consumes for this discovery,
            # so every shard numbers a topology event's discoveries alike.
            self._gc += 1
            return
        super()._schedule_discovery(
            node_id, other, added=added, change_time=change_time
        )

    def _push_discover(
        self, t: float, node_id: int, other: int, added: bool, absence: bool
    ) -> None:
        # Absence discoveries consume a key only when actually pushed (the
        # base applies the locality and dedup checks first), as serial
        # consumes a sequence number.
        key = self._gp + (self._gc,)
        self._gc += 1
        self.sim.queue.push_keyed(
            t, PRIORITY_DELIVERY, key, KIND_DISCOVER, node_id, other, added,
            absence, None, "discover",
        )

    def _handle_discover(self, ev: ScheduledEvent) -> None:
        # Sends emitted while handling the discovery (greeting a new
        # neighbour) extend the discovery's own global position.
        self._gp = (self.sim.now, 1) + cast(GKey, ev.seq)
        self._gc = 0
        super()._handle_discover(ev)

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def _dispatch_deliver_record(self, ev: ScheduledEvent) -> None:
        """Scalar delivery of one keyed record (local or envelope).

        The batch table's delivery paths need neither step: a shard builds
        the table only without churn, so no edge ever flips, the drop
        predicate is false for envelope records too, and delivery
        handlers never send.
        """
        self._gp = (self.sim.now, 1) + cast(GKey, ev.seq)
        self._gc = 0
        if ev.e == -2:
            # Merged envelope: the sender-side shadow (or nothing, when no
            # churn exists) owns the drop accounting; the receiver only
            # delivers or silently drops.
            u, v = ev.a, ev.b
            if not self._has_edge(u, v) or self._removed_during(
                u, v, ev.d, self.sim.now
            ):
                return
            self.stats.delivered += 1
            node = self._node_seq[v]
            assert node is not None
            node.on_message(u, ev.c)
        else:
            self._deliver(ev.a, ev.b, ev.c, ev.d, -1)

    def _handle_deliver(self, ev: ScheduledEvent) -> None:
        self._dispatch_deliver_record(ev)

    def _handle_par_shadow(self, ev: ScheduledEvent) -> None:
        """Sender-side drop check of a cross-shard delivery (see module doc)."""
        self._gp = (self.sim.now, 1) + cast(GKey, ev.seq)
        self._gc = 0
        u, v = ev.a, ev.b
        if not self._has_edge(u, v) or self._removed_during(
            u, v, ev.d, self.sim.now
        ):
            self.stats.dropped_removed += 1
            self._schedule_absence_discovery(u, v, send_time=ev.d)

    # ------------------------------------------------------------------ #
    # Provenance of timers, topology and aggregate records
    # ------------------------------------------------------------------ #

    def _enter_constituent(self, ev: ScheduledEvent, i: int) -> None:
        self._gp = _dispatch_prefix(self.sim.now, ev, i)
        self._gc = 0

    def _handle_timer(self, ev: ScheduledEvent) -> None:
        """Scalar ``KIND_TIMER`` dispatch under the timer's own prefix."""
        self._enter_constituent(ev, 0)
        ev.a._fire_timer(ev.b)

    def _handle_topology(self, ev: ScheduledEvent) -> None:
        """Graph mutation (``KIND_TOPOLOGY``) under its topology prefix."""
        idx = self._topo_idx
        self._topo_idx = idx + 1
        self._gp = (self.sim.now, 0, idx)
        self._gc = 0
        if ev.b:
            ev.a.add_edge(ev.c, ev.d, self.sim.now)
        else:
            ev.a.remove_edge(ev.c, ev.d, self.sim.now)

    # ------------------------------------------------------------------ #
    # Batch table
    # ------------------------------------------------------------------ #

    def _ensure_batch_table(self) -> "NodeArrayTable | bool":
        table = self._batch_table
        if table is None:
            if self._shadows:
                # Churn turns bulk sends off mid-run, and the kernel's
                # per-message sends carry no provenance: scalar path.
                self.sim.subsystems.setdefault(
                    REASON_KEY,
                    "scripted churn runs on the scalar path under the "
                    "parallel backend",
                )
                table = False
            else:
                built = build_node_array_table(
                    self.sim, self, ParNodeArrayTable
                )
                table = built if built is not None else False
            self._batch_table = table
        return table


def _dispatch_prefix(now: float, ev: ScheduledEvent, i: int) -> GKey:
    """Provenance prefix of dispatching ``ev`` (its constituent ``i``).

    A timer dispatches under ``(t, 2, arm_time, phase, node_id)``; tick
    group constituent ``i`` under its driver's timer prefix; ``E_0`` burst
    constituent ``i`` under ``(t, 1) + key`` with the key of the
    individual announcement it replaces (see the module docstring).
    """
    kind = ev.kind
    if kind == KIND_TIMER:
        return (now, 2, ev.d, ev.e, ev.a.node_id)
    if kind == KIND_TICK_BURST:
        return (now, 2, ev.d, ev.b, ev.a[i].node_id)
    key = cast(GKey, ev.seq)
    return (now, 1) + key[:-1] + (ev.c[i],)


def _constituents(src: Any) -> Iterator[tuple[int, Any, int]]:
    """``(node_id, record, i)`` per constituent of a dispatched batch."""
    if type(src) is list:
        for rec in src:
            yield rec.a.node_id, rec, 0
    elif src.kind == KIND_TICK_BURST:
        for i, d in enumerate(src.a):
            yield d.node_id, src, i
    else:
        for i, u in enumerate(src.a):
            yield u, src, i


class ParNodeArrayTable(NodeArrayTable):
    """The serial batch table with a shard-routing emission step.

    The handler overrides only remember the dispatching records; the
    kernel itself runs unchanged over the shard's node range.
    :meth:`_emit_sends` keys every bulk send by its global provenance and
    routes it: interior local destinations aggregate into one keyed burst,
    frontier locals get individual keyed records, remote destinations
    become envelopes (see the module docstring).
    """

    __slots__ = ("_src",)

    #: The batch being dispatched: fired timer records, or a tick group or
    #: ``E_0`` burst record.
    _src: Any

    def handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        self._src = records
        super().handle_timer_batch(records)

    def handle_tick_group(self, ev: ScheduledEvent) -> None:
        self._src = ev
        super().handle_tick_group(ev)

    def discover_burst(self, ev: ScheduledEvent) -> None:
        self._src = ev
        super().discover_burst(ev)

    def _emit_sends(
        self, us: list[int], vs: list[int], payloads: list[Any]
    ) -> None:
        transport = cast(ParTransport, self.transport)
        now = self.sim.now
        t_del = now + cast(float, self.send_delay)
        push_keyed = self.sim.queue.push_keyed
        envelopes = transport._envelopes
        frontier = transport._frontier
        lo = self.lo
        hi = self.hi
        src = self._src
        # A tick's sends share their driver's prefix and count up; each
        # E_0 greeting is a constituent of its own.
        greetings = type(src) is not list and src.kind == KIND_DISCOVER_BURST
        owners = _constituents(src)
        u_in: list[int] = []
        v_in: list[int] = []
        p_in: list[Any] = []
        burst_key: GKey | None = None
        last = -1
        gp: GKey = ()
        ctr = 0
        for u, v, payload in zip(us, vs, payloads):
            if greetings or u != last:
                for owner, rec, i in owners:
                    if owner == u:
                        break
                else:
                    raise SimulationError(f"bulk send from {u} has no sender")
                gp = _dispatch_prefix(now, rec, i)
                ctr = 0
                last = u
            key = gp + (ctr,)
            ctr += 1
            if v < lo or v >= hi:
                envelopes.append((t_del, key, u, v, payload, now))
            elif v in frontier:
                push_keyed(
                    t_del, PRIORITY_DELIVERY, key, KIND_DELIVER, u, v,
                    payload, now, None, "deliver", e=-1,
                )
            else:
                if burst_key is None:
                    burst_key = key
                u_in.append(u)
                v_in.append(v)
                p_in.append(payload)
        transport.stats.sent += len(us)
        if burst_key is not None:
            push_keyed(
                t_del, PRIORITY_DELIVERY, burst_key, KIND_DELIVER_BURST, u_in,
                v_in, p_in, now, None, "deliver+", e=len(u_in),
            )


# ---------------------------------------------------------------------- #
# Barrier planning
# ---------------------------------------------------------------------- #


def _barrier_plan(
    cfg: "ExperimentConfig", interval: float, have_oracle: bool
) -> tuple[list[float], list[float]]:
    """Barrier times and sample times for the run (see module docstring).

    The grid is built by *multiplication* (``step * m``) so every shard and
    the coordinator agree bitwise on the barrier set, and sample times by
    the same ``t += interval`` accumulation the serial kernel's sample
    re-arm performs, so each sample lands at the bitwise-identical float.
    """
    params = cfg.params
    c = params.max_delay if cfg.delay_spec == "max" else 0.5 * params.max_delay
    step = 0.5 * c
    horizon = float(cfg.horizon)
    bset = {0.0, horizon}
    m = 1
    t = step
    while t < horizon:
        bset.add(t)
        m += 1
        t = step * m
    samples: list[float] = []
    if have_oracle:
        t = 0.0
        while t <= horizon:
            samples.append(t)
            bset.add(t)
            t += interval
    return sorted(bset), samples


# ---------------------------------------------------------------------- #
# Worker
# ---------------------------------------------------------------------- #


def _build_worker_experiment(
    cfg: "ExperimentConfig", lo: int, hi: int, frontier: frozenset[int]
) -> tuple[Simulator, ParTransport, DynamicGraph, "dict[int, ClockSyncNode]"]:
    """Wire one shard: full graph/clock/churn replica, local nodes only.

    Mirrors :class:`~repro.harness.runner.Experiment` construction exactly
    -- same RNG spawn order, same per-node clock draws for *all* ids --
    so shared randomness is bitwise identical across shard counts.
    """
    from ..baselines import FreeRunningNode
    from ..harness.runner import (
        ALGORITHMS,
        _make_clock,
        _make_delay,
        _make_discovery,
    )

    params = cfg.params
    rngf = RngFactory(cfg.seed)
    sim = Simulator()
    graph = DynamicGraph(range(params.n), cfg.initial_edges)
    transport = ParTransport(
        sim,
        graph,
        delay_policy=_make_delay(cfg.delay_spec, params, rngf.spawn("delay")),
        discovery_policy=_make_discovery(
            cfg.discovery_spec, params, rngf.spawn("discovery")
        ),
        max_delay=params.max_delay,
        discovery_bound=params.discovery_bound,
        frontier=frontier,
        shadows=bool(cfg.churn),
    )
    clock_rng = rngf.spawn("clocks")
    rngf.spawn("stagger")  # parity: serial spawns the stream even when unused
    node_cls = ALGORITHMS[cfg.algorithm]
    nodes: "dict[int, ClockSyncNode]" = {}
    for i in range(params.n):
        # Clocks are drawn for every id (the "uniform" spec consumes one
        # draw per node) so the stream stays aligned with serial.
        clock = _make_clock(cfg.clock_spec, i, params, clock_rng, cfg.horizon)
        validate_drift(clock, params.rho)
        if lo <= i < hi:
            kwargs: dict[str, Any] = {}
            if node_cls is not FreeRunningNode:
                kwargs["tick_stagger"] = 0.0
            node = node_cls(i, sim, clock, transport, params, **kwargs)
            transport.register_node(i, node)
            nodes[i] = node

    # Keyed dispatch wrappers: every timer/topology dispatch stamps its
    # provenance prefix before running, so keyed pushes it emits land at
    # their global serial position.  Direct list assignment -- the node
    # table and the kernel registered the plain handlers and set_handler
    # refuses replacements.
    sim._handlers[KIND_TIMER] = transport._handle_timer
    sim._handlers[KIND_TOPOLOGY] = transport._handle_topology

    transport._gp = (0.0, -1)
    transport._gc = 0
    transport.announce_initial_edges()
    rngf.spawn("churn")  # parity: serial spawns before installing churn
    for proc in cfg.churn:
        assert isinstance(proc, ScriptedChurn)
        proc.install(sim, graph)
    # The serial harness's start (see Experiment): no shipped core sends
    # at Start, so the scalar fallback needs no provenance prefix.
    local = list(nodes.values())
    if not start_ticks(transport, local):
        for node in local:
            node.start()
    return sim, transport, graph, nodes


def _merge_envelopes(
    sim: Simulator, incoming: list[Envelope], barrier: float
) -> None:
    """Push the envelopes routed to this shard at ``barrier`` as deliveries.

    Enforces the lookahead invariant -- a flushed send always delivers at
    or past the barrier it was flushed at -- with an explicit error (not
    an ``assert``, which ``python -O`` strips): a past-dated envelope
    would otherwise be dispatched out of order without a trace.
    """
    push_keyed = sim.queue.push_keyed
    now = sim.now
    for t_d, key, u, v, payload, st in incoming:
        if t_d < now:
            raise SimulationError(
                f"lookahead violated: envelope {u}->{v} key={key!r} "
                f"delivers at t={t_d!r}, before barrier t={barrier!r} "
                f"(shard clock {now!r})"
            )
        push_keyed(
            t_d, PRIORITY_DELIVERY, key, KIND_DELIVER, u, v, payload, st,
            None, "deliver", e=-2,
        )


def _worker_main(
    cfg: "ExperimentConfig",
    lo: int,
    hi: int,
    frontier: frozenset[int],
    barriers: list[float],
    samples: list[float],
    shm: Any,
    conn: Connection,
) -> None:
    """Worker process body: run window-by-window against the coordinator."""
    gc.disable()
    try:
        sim, transport, graph, nodes = _build_worker_experiment(
            cfg, lo, hi, frontier
        )
        sim.kind_counts = [0] * N_KINDS
        n = cfg.params.n
        block = np.frombuffer(cast(Any, shm), dtype=np.float64).reshape(2, n)
        sample_set = set(samples)
        local_ids = sorted(nodes)
        horizon = float(cfg.horizon)
        busy = 0.0
        wait = 0.0
        env_out = 0
        env_in = 0
        for j, b in enumerate(barriers):
            t0 = time.perf_counter()
            sim.run_until(b)
            if b in sample_set:
                table = transport._batch_table
                if isinstance(table, NodeArrayTable):
                    block[0, lo:hi] = table.clock_column(b)
                    block[1, lo:hi] = table.max_estimate_column(b)
                else:
                    row_c = block[0]
                    row_m = block[1]
                    for i in local_ids:
                        node = nodes[i]
                        row_c[i] = node.logical_clock(b)
                        row_m[i] = node.max_estimate(b)
            out = transport._envelopes
            transport._envelopes = []
            env_out += len(out)
            t1 = time.perf_counter()
            busy += t1 - t0
            conn.send(
                (
                    "win",
                    j,
                    out,
                    {
                        "busy_seconds": busy,
                        "barrier_wait_seconds": wait,
                        "envelopes_out": env_out,
                        "envelopes_in": env_in,
                        "events": sim.events_dispatched,
                    },
                )
            )
            incoming: list[Envelope] = conn.recv()
            wait += time.perf_counter() - t1
            env_in += len(incoming)
            _merge_envelopes(sim, incoming, b)
        kc = sim.kind_counts
        assert kc is not None
        done = {
            "lo": lo,
            "hi": hi,
            "clock": [nodes[i].logical_clock(horizon) for i in local_ids],
            "maxe": [nodes[i].max_estimate(horizon) for i in local_ids],
            "rate": [nodes[i].clock.rate_at(horizon) for i in local_ids],
            "jumps": [nodes[i].jumps for i in local_ids],
            "total_jump": [nodes[i].total_jump for i in local_ids],
            "messages_sent": [nodes[i].messages_sent for i in local_ids],
            "stats": transport.stats.as_dict(),
            "events": sim.events_dispatched,
            "kind_counts": list(kc),
            "batch_gate_reason": sim.subsystems.get(REASON_KEY),
        }
        conn.send(("done", done))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# Coordinator
# ---------------------------------------------------------------------- #


class ShmNodeView:
    """Node-shaped read proxy over the shared-memory sample block.

    Quacks like :class:`~repro.core.node.ClockSyncNode` for the oracle's
    reader loop and for result accounting: while the run is live,
    ``logical_clock``/``max_estimate`` return the worker-written value for
    the *current* barrier (the coordinator only samples at barriers the
    workers have already written); after :meth:`finalize`, reads
    extrapolate from the horizon state at the node's constant rate.
    """

    __slots__ = (
        "node_id",
        "_clock_row",
        "_max_row",
        "_final",
        "jumps",
        "total_jump",
        "messages_sent",
    )

    def __init__(
        self,
        node_id: int,
        clock_row: "np.ndarray[Any, np.dtype[np.float64]]",
        max_row: "np.ndarray[Any, np.dtype[np.float64]]",
    ) -> None:
        self.node_id = node_id
        self._clock_row = clock_row
        self._max_row = max_row
        self._final: tuple[float, float, float, float] | None = None
        self.jumps = 0
        self.total_jump = 0.0
        self.messages_sent = 0

    def logical_clock(self, t: float | None = None) -> float:
        fin = self._final
        if fin is None:
            return float(self._clock_row[self.node_id])
        value, _maxe, rate, horizon = fin
        if t is None:
            return value
        return value + rate * (t - horizon)

    def max_estimate(self, t: float | None = None) -> float:
        fin = self._final
        if fin is None:
            return float(self._max_row[self.node_id])
        _value, maxe, rate, horizon = fin
        if t is None:
            return maxe
        return maxe + rate * (t - horizon)

    def finalize(
        self,
        clock: float,
        maxe: float,
        rate: float,
        horizon: float,
        jumps: int,
        total_jump: float,
        messages_sent: int,
    ) -> None:
        """Pin the horizon state reported by the owning worker."""
        self._final = (clock, maxe, rate, horizon)
        self.jumps = jumps
        self.total_jump = total_jump
        self.messages_sent = messages_sent


def run_par(cfg: "ExperimentConfig", shards: int = 2) -> "RunResult":
    """Run ``cfg`` on the space-partitioned parallel backend.

    Genuinely shards when :func:`genuine_shard_reason` returns ``None``
    (and ``fork`` is available); otherwise runs the serial backend and
    records the reason on ``RunResult.par_fallback_reason``.  A genuine
    run is bit-identical to serial for every ``shards >= 1`` (the parity
    tests pin this).
    """
    from ..analysis.recorder import RunRecord
    from ..harness.runner import ALGORITHMS, Experiment, RunResult
    from ..oracle.oracle import StreamingOracle
    from ..telemetry.registry import active_registry

    cfg.params.validate()
    if shards < 1:
        raise ValueError(f"shards must be >= 1; got {shards!r}")
    if cfg.algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {cfg.algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        )
    reason = genuine_shard_reason(cfg)
    if reason is None and "fork" not in multiprocessing.get_all_start_methods():
        reason = "the platform does not support the fork start method"
    if reason is not None:
        serial = Experiment(replace(cfg, runtime="sim")).run()
        # Restore the original config so sweep identity and reports show
        # what was actually requested.
        serial.config = cfg
        serial.par_fallback_reason = reason
        return serial

    params = cfg.params
    n = params.n
    union_edges: list[tuple[int, int]] = [
        (int(u), int(v)) for u, v in cfg.initial_edges
    ]
    for proc in cfg.churn:
        assert isinstance(proc, ScriptedChurn)
        union_edges.extend((u, v) for _t, _op, u, v in proc.events)
    ranges = partition_ranges(n, shards, union_edges)
    k = len(ranges)
    shard_of = [0] * n
    for w, (a, b) in enumerate(ranges):
        for i in range(a, b):
            shard_of[i] = w
    frontiers: list[set[int]] = [set() for _ in range(k)]
    for u, v in union_edges:
        if shard_of[u] != shard_of[v]:
            frontiers[shard_of[u]].add(u)
            frontiers[shard_of[v]].add(v)

    orc = cfg.oracle
    if orc is not None and not isinstance(orc, StreamingOracle):
        # Same out-of-band derivation as the serial harness: the oracle's
        # rng never touches the spawn sequence.
        orc = orc(params, np.random.default_rng(cfg.seed))
    interval = (
        orc.interval
        if orc is not None and orc.interval is not None
        else cfg.sample_interval
    )
    barriers, samples = _barrier_plan(cfg, float(interval), orc is not None)

    shm = RawArray("d", 2 * n)
    block = np.frombuffer(cast(Any, shm), dtype=np.float64).reshape(2, n)
    views = {i: ShmNodeView(i, block[0], block[1]) for i in range(n)}
    coord_sim = Simulator()
    coord_graph = DynamicGraph(range(n), cfg.initial_edges)
    if orc is not None:
        # Installed before churn (the serial recorder/oracle vantage
        # point): churn-seeded t=0 edges arrive via the graph-event path.
        orc.install(
            coord_sim, coord_graph, views,
            interval=float(interval), end=float(cfg.horizon),
        )
    for proc in cfg.churn:
        assert isinstance(proc, ScriptedChurn)
        proc.install(coord_sim, coord_graph)

    # Telemetry: per-shard health read from the latest barrier snapshots.
    # Readers raise (KeyError/ZeroDivisionError) until first data arrives;
    # the registry snapshot skips raising readers, so the dashboard shows
    # blanks instead of zeros that mean nothing.
    telem: dict[int, dict[str, float]] = {}
    cur_window = [0]
    registry = active_registry()
    if registry is not None:
        if orc is not None:
            orc.instrument(registry)
        registry.gauge_fn("par.shards", lambda: k)
        registry.gauge_fn("par.window", lambda: cur_window[0])

        def _utilization() -> float:
            busy = sum(s["busy_seconds"] for s in telem.values())
            wait = sum(s["barrier_wait_seconds"] for s in telem.values())
            return busy / (busy + wait)

        registry.gauge_fn("par.utilization", _utilization)

        def _reader(field: str, w: int) -> Callable[[], float]:
            return lambda: telem[w][field]

        for w in range(k):
            registry.counter_fn(
                f"par.shard{w}.envelopes_out", _reader("envelopes_out", w)
            )
            registry.counter_fn(
                f"par.shard{w}.envelopes_in", _reader("envelopes_in", w)
            )
            registry.counter_fn(f"par.shard{w}.events", _reader("events", w))
            registry.gauge_fn(
                f"par.shard{w}.busy_seconds", _reader("busy_seconds", w)
            )
            registry.gauge_fn(
                f"par.shard{w}.barrier_wait_seconds",
                _reader("barrier_wait_seconds", w),
            )

    ctx = multiprocessing.get_context("fork")
    conns: list[Connection] = []
    procs: list[Any] = []
    dones: list[dict[str, Any]] = [{} for _ in range(k)]

    def _recv(w: int) -> Any:
        """Shard ``w``'s next message; a failed or dead worker raises."""
        try:
            msg = conns[w].recv()
        except EOFError:
            # Exited without reporting (killed, os._exit): name the shard.
            procs[w].join(timeout=5.0)
            a, b = ranges[w]
            raise RuntimeError(
                f"parallel shard worker {w} (nodes [{a}, {b})) exited "
                f"with code {procs[w].exitcode} without reporting"
            ) from None
        if msg[0] == "err":
            raise RuntimeError(f"parallel shard worker {w} failed:\n{msg[1]}")
        return msg
    try:
        for w, (a, b) in enumerate(ranges):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            # Under fork, arguments are inherited by the child directly --
            # no pickling of the config or the shared block.
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    cfg, a, b, frozenset(frontiers[w]), barriers, samples,
                    shm, child_conn,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        for j, b in enumerate(barriers):
            cur_window[0] = j
            outs: list[list[Envelope]] = []
            for w in range(k):
                msg = _recv(w)
                telem[w] = msg[3]
                outs.append(msg[2])
            coord_sim.run_until(b)
            inboxes: list[list[Envelope]] = [[] for _ in range(k)]
            for out in outs:
                for env in out:
                    inboxes[shard_of[env[3]]].append(env)
            for conn, inbox in zip(conns, inboxes):
                conn.send(inbox)
        for w in range(k):
            dones[w] = _recv(w)[1]
        for proc in procs:
            proc.join(timeout=30.0)
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

    horizon = float(cfg.horizon)
    stats = {f: 0 for f in _STAT_FIELDS}
    events = coord_sim.events_dispatched
    batch_reason: str | None = None
    for done in dones:
        lo = done["lo"]
        hi = done["hi"]
        clocks = done["clock"]
        maxes = done["maxe"]
        rates = done["rate"]
        jumps = done["jumps"]
        tjs = done["total_jump"]
        msgs = done["messages_sent"]
        for off, i in enumerate(range(lo, hi)):
            views[i].finalize(
                clocks[off], maxes[off], rates[off], horizon,
                jumps[off], tjs[off], msgs[off],
            )
        wstats = done["stats"]
        for f in _STAT_FIELDS:
            stats[f] += wstats[f]
        kc = done["kind_counts"]
        # Topology replays in every shard (the coordinator's copy is the
        # one that counts); shadow records are a parallel-only artefact.
        events += done["events"] - kc[KIND_TOPOLOGY] - kc[KIND_PAR_SHADOW]
        if lo == 0:
            batch_reason = done["batch_gate_reason"]
    record = RunRecord(
        node_ids=list(range(n)),
        times=np.empty(0),
        clocks=np.empty((0, n)),
    )
    return RunResult(
        config=cfg,
        record=record,
        graph=coord_graph,
        nodes=cast("dict[int, ClockSyncNode]", views),
        transport_stats=stats,
        events_dispatched=events,
        oracle_report=orc.report() if orc is not None else None,
        batch_gate_reason=batch_reason,
        par_shards=k,
    )
