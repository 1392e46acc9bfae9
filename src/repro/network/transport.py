"""Message transport and discovery wiring.

:class:`Transport` implements the delivery contract of Section 3.2 on top of
a :class:`~repro.network.graph.DynamicGraph`, a
:class:`~repro.network.channels.DelayPolicy` and a
:class:`~repro.network.discovery.DiscoveryPolicy`:

* **Reliable FIFO delivery within** :math:`\\mathcal{T}`: if the edge exists
  throughout ``[t, t + delay]`` the message is delivered at ``t + delay``
  (clamped so it cannot overtake an earlier message on the same directed
  link -- the clamp can never exceed the :math:`\\mathcal{T}` bound because
  the predecessor met its own bound).
* **Drop on removal**: a message in flight over an edge that gets removed is
  dropped, and the sender additionally discovers the failure no later than
  ``send_time + discovery_bound`` (the model's MAC-layer-ack abstraction).
* **Send on a non-existent edge**: dropped; the sender discovers the edge is
  gone no later than ``send_time + discovery_bound``.
* **Discovery of persistent changes**: every add/remove that persists is
  discovered by both endpoints within ``discovery_bound``; transient changes
  are verified at fire time and silently skipped if already reversed, which
  realises the model's "may or may not be detected".

The transport is a *typed-kernel subsystem*: it registers the
:data:`~repro.sim.events.KIND_DELIVER` and
:data:`~repro.sim.events.KIND_DISCOVER` dispatch handlers on its simulator
and schedules payload-carrying records instead of per-message closures, so
the hot delivery path allocates no closures and recycles its event records
(see docs/performance.md).  Registered node implementations are additionally
mirrored into a dense list keyed by node id for O(1) list-indexed dispatch.

Nodes registered with the transport must provide three callbacks::

    on_message(sender: int, payload) -> None
    on_discover_add(other: int) -> None
    on_discover_remove(other: int) -> None

(:class:`repro.core.node.ClockSyncNode` provides this interface.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, cast

from ..sim.events import (
    KIND_DELIVER,
    KIND_DELIVER_BURST,
    KIND_DISCOVER,
    KIND_DISCOVER_BURST,
    KIND_TICK_BURST,
    KIND_TIMER,
    PRIORITY_DELIVERY,
    ScheduledEvent,
)
from ..sim.simulator import Simulator
from ..sim.tracing import NULL_TRACE, TraceRecorder
from ..tracing.spans import (
    SPAN_FLIGHT,
    STATUS_DONE,
    STATUS_DROPPED,
    STATUS_PENDING,
)
from .channels import ConstantDelay, DelayPolicy
from .discovery import ConstantDiscovery, DiscoveryPolicy
from .graph import DynamicGraph

_TICK = "tick"

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..core.batch import NodeArrayTable
    from ..telemetry.registry import MetricsRegistry
    from ..tracing.context import Tracer

__all__ = ["Transport", "NodeInterface", "TransportStats"]


class NodeInterface(Protocol):
    """Callbacks a node must implement to ride the transport."""

    def on_message(self, sender: int, payload: Any) -> None: ...

    def on_discover_add(self, other: int) -> None: ...

    def on_discover_remove(self, other: int) -> None: ...


class TransportStats:
    """Mutable delivery counters (exposed for tests and reports)."""

    __slots__ = (
        "sent",
        "delivered",
        "dropped_no_edge",
        "dropped_removed",
        "discoveries_delivered",
        "discoveries_skipped",
    )

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_no_edge = 0
        self.dropped_removed = 0
        self.discoveries_delivered = 0
        self.discoveries_skipped = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict."""
        return {k: getattr(self, k) for k in self.__slots__}


class Transport:
    """Wires nodes, graph, channel delays and discovery into one fabric.

    Parameters
    ----------
    sim:
        The simulation kernel.
    graph:
        The dynamic graph; the transport subscribes to its mutations.
    delay_policy / discovery_policy:
        Behavioural policies (see module docstring).
    max_delay:
        :math:`\\mathcal{T}`; every policy delay is validated against it.
    discovery_bound:
        :math:`\\mathcal{D}`; discovery latencies are validated against it.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        *,
        delay_policy: DelayPolicy,
        discovery_policy: DiscoveryPolicy,
        max_delay: float,
        discovery_bound: float,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.delay_policy = delay_policy
        self.discovery_policy = discovery_policy
        self.max_delay = float(max_delay)
        self.discovery_bound = float(discovery_bound)
        self.trace = trace if trace is not None else NULL_TRACE
        #: Hot-path trace target (``None`` when tracing is disabled, so the
        #: per-message fast path skips even the no-op record calls).
        self._trace = self.trace if self.trace.enabled else None
        #: Span tracer (``None`` when causal tracing is off); the transport
        #: is FIFO per directed link, so the tracer correlates send/deliver
        #: by order without touching payloads.
        self._tracer: "Tracer | None" = None
        self.stats = TransportStats()
        #: Graph mutations observed (both directions of churn); kept off
        #: :class:`TransportStats` so sim/live stats dicts stay congruent.
        self.edge_flips = 0
        self._nodes: dict[int, NodeInterface] = {}
        #: Dense mirror of ``_nodes`` keyed by node id (``None`` = empty slot).
        self._node_seq: list[NodeInterface | None] = []
        self._fifo_last: dict[tuple[int, int], float] = {}
        self._pending_absence: set[tuple[int, int]] = set()
        # Pre-bound hot-path callables (saves attribute chains per message).
        self._has_edge = graph.has_edge
        self._removed_during = graph.removed_during
        self._push = sim.queue.push_typed
        #: Batch-dispatch table: ``None`` until first use, ``False`` when
        #: the execution was checked and found batch-incompatible (the
        #: verdict cannot change mid-run, so it is cached), else the built
        #: :class:`~repro.core.batch.NodeArrayTable`.
        self._batch_table: "NodeArrayTable | None | bool" = None
        #: The constant-policy gate: batch kernel on, and positive
        #: constant delay and discovery policies (decided once, below).
        self._constant_policies = False
        sim.set_handler(KIND_DELIVER, self._handle_deliver)
        sim.set_handler(KIND_DELIVER_BURST, self._handle_deliver_burst)
        sim.set_handler(KIND_DISCOVER, self._handle_discover)
        if sim.batch:
            sim.set_batch_handler(KIND_DELIVER, self._handle_deliver_batch)
            sim.set_batch_handler(
                KIND_DELIVER_BURST, self._handle_deliver_burst_run
            )
            # Pre-popping timer runs is only sound when nothing a timer
            # handler does can schedule a same-timestamp event that scalar
            # dispatch would order *inside* the run: a zero or randomized
            # delay (or discovery latency) could land a delivery/discovery
            # at the current time at a lower priority.  Both policies being
            # positive constants rules that out, and the policy types are
            # fixed for the transport's lifetime, so the gate is decided
            # here once.
            delay = self.delay_policy
            disc = self.discovery_policy
            if (
                type(delay) is ConstantDelay
                and delay.value > 0.0
                and type(disc) is ConstantDiscovery
                and disc.value > 0.0
            ):
                self._constant_policies = True
                sim.set_batch_handler(KIND_TIMER, self._handle_timer_batch)
                # Tick groups and discovery bursts only ever originate
                # under this gate (the batch table's timer handlers, the
                # batched start, announce_initial_edges), so their handlers
                # ride it too.
                sim.set_handler(KIND_TICK_BURST, self._handle_tick_burst)
                sim.set_batch_handler(
                    KIND_TICK_BURST, self._handle_tick_burst_run
                )
                sim.set_handler(
                    KIND_DISCOVER_BURST, self._handle_discover_burst
                )
        graph.subscribe(self._on_graph_event)

    def attach_tracer(self, tracer: "Tracer") -> None:
        """Record message flights / topology spans into ``tracer``.

        Must be attached before nodes start sending: the tracer's FIFO
        flight correlation assumes it sees every send on a link.
        """
        self._tracer = tracer

    def instrument(self, registry: "MetricsRegistry") -> None:
        """Register transport metrics as polled readbacks on ``registry``.

        The transport keeps counting into :class:`TransportStats` exactly
        as before; telemetry only reads those counters out-of-band, so the
        send/deliver hot paths gain no per-message work at all.
        """
        stats = self.stats

        def _stat_reader(field: str) -> Any:
            return lambda: getattr(stats, field)

        for field in TransportStats.__slots__:
            registry.counter_fn(f"transport.{field}", _stat_reader(field))
        registry.counter_fn("transport.edge_flips", lambda: self.edge_flips)
        registry.gauge_fn(
            "transport.in_flight",
            lambda: stats.sent
            - stats.delivered
            - stats.dropped_no_edge
            - stats.dropped_removed,
        )

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #

    def register_node(self, node_id: int, node: NodeInterface) -> None:
        """Attach a node implementation to a graph node id."""
        if not self.graph.has_node(node_id):
            raise ValueError(f"unknown node id {node_id!r}")
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        self._nodes[node_id] = node
        seq = self._node_seq
        while len(seq) <= node_id:
            seq.append(None)
        seq[node_id] = node

    def node(self, node_id: int) -> NodeInterface:
        """The node implementation registered for ``node_id``."""
        return self._nodes[node_id]

    def announce_initial_edges(self) -> None:
        """Deliver ``discover(add)`` for every edge of ``E_0`` at ``t = 0``.

        Initial edges are known to their endpoints from the start; this is
        scheduled (rather than called directly) so nodes see the discovery
        through the ordinary event pipeline before their first tick.

        Under the constant-policy gate (and with legacy tracing off) every
        announcement shares one fire time, so ``E_0`` travels as a single
        :data:`~repro.sim.events.KIND_DISCOVER_BURST` record carrying the
        ``(node, other)`` pairs in the order the individual records would
        have been pushed.  Those records would have held consecutive
        sequence numbers in one ``(time, priority)`` class, so the burst
        sorts exactly where they would (see :meth:`_handle_discover_burst`).
        """
        now = self.sim.now
        if not self._constant_policies or self._trace is not None:
            for u, v in self.graph.edges():
                self._schedule_discovery(u, v, added=True, change_time=now)
                self._schedule_discovery(v, u, added=True, change_time=now)
            return
        lat = cast(ConstantDiscovery, self.discovery_policy).value
        if lat > self.discovery_bound + 1e-9:
            raise ValueError(
                f"discovery latency {lat!r} outside [0, {self.discovery_bound}]"
            )
        registered = self._nodes
        nodes: list[int] = []
        others: list[int] = []
        for u, v in self.graph.edges():
            # _schedule_discovery skips unregistered endpoints.
            if u in registered:
                nodes.append(u)
                others.append(v)
            if v in registered:
                nodes.append(v)
                others.append(u)
        if nodes:
            self._push_discover_burst(now + lat, nodes, others)

    def _push_discover_burst(
        self, t: float, nodes: list[int], others: list[int]
    ) -> None:
        """Push ``E_0``'s discovery burst (the parallel backend keys it)."""
        self.sim.queue.push_typed(
            t, PRIORITY_DELIVERY, KIND_DISCOVER_BURST, nodes, others, None,
            None, None, "discover+", e=len(nodes),
        )

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, u: int, v: int, payload: Any) -> None:
        """Send ``payload`` from ``u`` to ``v`` under the Section 3.2 contract."""
        now = self.sim.now
        trace = self._trace
        self.stats.sent += 1
        if not self._has_edge(u, v):
            self.stats.dropped_no_edge += 1
            if trace is not None:
                trace.record(now, "send_fail", u, v)
            if self._tracer is not None:
                self._tracer.flight_fail(u, v, now)
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
            t_deliver = prev  # FIFO clamp; see module docstring
        fifo[link] = t_deliver
        if trace is not None:
            trace.record(now, "send", u, v, t_deliver)
        # Open a flight span inline (this is the hottest tracer site; see
        # Tracer's class docstring) and carry its id on the delivery
        # record's observer slot ``e`` -- physics never reads it.  The
        # span is written *optimistically closed*: the FIFO clamp fixed
        # ``t_deliver`` for good, so for the common case (delivered) no
        # further write is needed.  The rare other outcomes are patched
        # after the fact -- drops in :meth:`_deliver`, still-in-flight
        # spans by :meth:`finalize_tracing` at end of run.
        tracer = self._tracer
        sid = -1
        if tracer is not None:
            tdata = tracer.data
            sid = len(tdata) >> 3
            if sid < tracer.capacity:
                tdata.extend(
                    (SPAN_FLIGHT, u, v, now, t_deliver, tracer.current,
                     STATUS_DONE, 0.0)
                )
            else:
                tracer.table.dropped += 1
                sid = -1
        self._push(
            t_deliver, PRIORITY_DELIVERY, KIND_DELIVER, u, v, payload, now,
            None, "deliver", e=sid,
        )

    def _handle_deliver(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_DELIVER`` records (one call per message)."""
        self._deliver(ev.a, ev.b, ev.c, ev.d, ev.e)

    def _handle_deliver_batch(self, records: list[ScheduledEvent]) -> None:
        """Kernel batch handler for same-timestamp ``KIND_DELIVER`` runs.

        Pre-popping a deliver run is always sound -- delivery handlers
        never send, so nothing they do can insert a record *inside* the
        run -- but the array fast path additionally requires a valid
        :class:`~repro.core.batch.NodeArrayTable` (built lazily on first
        use, after ``t = 0`` wiring), no tracing, and a topology that has
        never mutated (``edge_flips == 0`` implies no delivery can hit the
        drop path).  Anything else replays the run through the scalar
        delivery handler in record order, which is exact.
        """
        table = self._ensure_batch_table()
        if (
            table is not False
            and self.edge_flips == 0
            and self._trace is None
            and self._tracer is None
        ):
            assert not isinstance(table, bool)
            table.deliver_batch(records)
            self.stats.delivered += len(records)
            return
        handle = self._handle_deliver
        for ev in records:
            handle(ev)

    def _ensure_batch_table(self) -> "NodeArrayTable | bool":
        """Build (once) and cache the batch dispatch table (see module doc)."""
        table = self._batch_table
        if table is None:
            from ..core.batch import build_node_array_table

            built = build_node_array_table(self.sim, self)
            table = built if built is not None else False
            self._batch_table = table
        return table

    def _handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        """Kernel batch handler for same-timestamp ``KIND_TIMER`` runs.

        Registered only under the constant-policy gate (see ``__init__``),
        which makes pre-popping sound; the array fast path additionally
        needs a valid table, else the run replays the registered scalar
        ``KIND_TIMER`` handler in record order, which is exact.
        """
        table = self._ensure_batch_table()
        if table is not False:
            assert not isinstance(table, bool)
            table.handle_timer_batch(records)
            return
        fire = self.sim._handlers[KIND_TIMER]
        for rec in records:
            fire(rec)  # type: ignore[misc]

    def _count_constituents(
        self, ev: ScheduledEvent, burst_kind: int, kind: int
    ) -> int:
        """Re-book an aggregate record's dispatch as its ``ev.e`` constituents.

        The kernel counted the record as one dispatch of ``burst_kind``;
        the tallies must match the individual-record execution.
        """
        sim = self.sim
        card: int = ev.e
        sim.events_dispatched += card - 1
        kind_counts = sim.kind_counts
        if kind_counts is not None:
            kind_counts[burst_kind] -= 1
            kind_counts[kind] += card
        return card

    def _handle_tick_burst(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_TICK_BURST`` records.

        A group stands for the pending ticks of ``ev.e`` drivers (see
        :mod:`repro.sim.events`); the kernel counted the record as one
        dispatch, so re-expand the cardinality into the dispatch tallies
        before executing.  A group armed by the batched start can meet a
        declined table (an observer attached after construction); it then
        replays its constituents' tick timers in list order, which is the
        scalar dispatch order of the records it stands for.
        """
        self._count_constituents(ev, KIND_TICK_BURST, KIND_TIMER)
        table = self._ensure_batch_table()
        if table is not False:
            assert not isinstance(table, bool)
            table.handle_tick_group(ev)
            return
        for i, d in enumerate(ev.a):
            self._enter_constituent(ev, i)
            d._fire_timer(_TICK)

    def _enter_constituent(self, ev: ScheduledEvent, i: int) -> None:
        """Hook run before constituent ``i`` of an aggregate record replays.

        A no-op here; the parallel backend stamps the constituent's
        provenance (see :mod:`repro.sim.par`).
        """

    def _handle_tick_burst_run(self, records: list[ScheduledEvent]) -> None:
        """Kernel batch handler for runs of tick groups (rare tie case)."""
        for ev in records:
            self._handle_tick_burst(ev)

    def _handle_deliver_burst(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_DELIVER_BURST`` records.

        A burst stands for ``ev.e`` consecutive individual deliveries (see
        :mod:`repro.sim.events`); the kernel counted the record as one
        dispatch, so re-expand the cardinality into the dispatch tallies
        before delivering.
        """
        card = self._count_constituents(ev, KIND_DELIVER_BURST, KIND_DELIVER)
        table = self._batch_table
        if (
            table is not None
            and table is not False
            and self.edge_flips == 0
            and self._trace is None
            and self._tracer is None
        ):
            assert not isinstance(table, bool)
            table.deliver_burst(ev.a, ev.b, ev.c)
            self.stats.delivered += card
            return
        # Churn happened while the burst was in flight: replay the
        # constituents through the scalar delivery, which applies the
        # per-message drop checks exactly as individual records would.
        us = ev.a
        vs = ev.b
        payloads = ev.c
        send_time = ev.d
        deliver = self._deliver
        for i in range(card):
            deliver(us[i], vs[i], payloads[i], send_time, -1)

    def _handle_deliver_burst_run(self, records: list[ScheduledEvent]) -> None:
        """Kernel batch handler for runs of burst records (rare tie case)."""
        for ev in records:
            self._handle_deliver_burst(ev)

    def _deliver(
        self, u: int, v: int, payload: Any, send_time: float,
        sid: int | None = -1,
    ) -> None:
        now = self.sim.now
        if sid is None:
            sid = -1  # record pushed before a tracer was attached
        if not self._has_edge(u, v) or self._removed_during(u, v, send_time, now):
            # The edge failed while the message was in flight: drop, and make
            # sure the sender learns within discovery_bound of the send.
            self.stats.dropped_removed += 1
            if self._trace is not None:
                self._trace.record(now, "drop_removed", u, v)
            if self._tracer is not None and sid >= 0:
                base = sid << 3
                tdata = self._tracer.data
                tdata[base + 4] = now
                tdata[base + 6] = STATUS_DROPPED
            self._schedule_absence_discovery(u, v, send_time=send_time)
            return
        self.stats.delivered += 1
        if self._trace is not None:
            self._trace.record(now, "recv", v, u)
        node = self._node_seq[v]
        assert node is not None
        tracer = self._tracer
        if tracer is not None:
            # The span was closed optimistically at send time (its t1 is
            # exact); delivery only enters/leaves the causal scope.
            tracer.current = sid
            node.on_message(u, payload)
            tracer.current = -1
        else:
            node.on_message(u, payload)

    def finalize_tracing(self) -> None:
        """Re-mark spans of still-queued deliveries as in flight or dropped.

        Flight spans are recorded optimistically ``STATUS_DONE`` at send
        time (see :meth:`send`); messages the horizon caught mid-flight
        never delivered, so walk the remaining event queue -- O(pending),
        a few hundred records -- and patch those spans.  A message whose
        edge has already failed would have been dropped at delivery time
        (the same check :meth:`_deliver` applies), so its span is closed
        ``STATUS_DROPPED`` at the horizon -- leaving it ``PENDING`` would
        strand a flight aimed at a node track that may no longer exist in
        the Perfetto export.  Everything else stays genuinely in flight
        and becomes ``STATUS_PENDING``.  The harness calls this once after
        the run.
        """
        tracer = self._tracer
        if tracer is None:
            return
        data = tracer.data
        now = self.sim.now
        for ev in self.sim.queue.live_events():
            if ev.kind == KIND_DELIVER:
                sid = ev.e
                if sid is not None and sid >= 0:
                    base = sid << 3
                    if not self._has_edge(ev.a, ev.b) or self._removed_during(
                        ev.a, ev.b, ev.d, now
                    ):
                        data[base + 4] = now
                        data[base + 6] = STATUS_DROPPED
                    else:
                        data[base + 6] = STATUS_PENDING

    # ------------------------------------------------------------------ #
    # Discovery
    # ------------------------------------------------------------------ #

    def _on_graph_event(self, time: float, u: int, v: int, added: bool) -> None:
        self.edge_flips += 1
        if self._trace is not None:
            self._trace.record(time, "edge_add" if added else "edge_remove", u, v)
        if self._tracer is not None:
            self._tracer.edge_flip(time, u, v, added)
        self._schedule_discovery(u, v, added=added, change_time=time)
        self._schedule_discovery(v, u, added=added, change_time=time)

    def _schedule_discovery(
        self, node_id: int, other: int, *, added: bool, change_time: float
    ) -> None:
        if node_id not in self._nodes:
            return  # Nodes may be registered lazily in tests.
        lat = self.discovery_policy.latency(node_id, other, added, change_time)
        if lat < 0.0 or lat > self.discovery_bound + 1e-9:
            raise ValueError(
                f"discovery latency {lat!r} outside [0, {self.discovery_bound}]"
            )
        fire_at = max(change_time + lat, self.sim.now)
        self._push_discover(fire_at, node_id, other, added, False)

    def _schedule_absence_discovery(self, u: int, v: int, *, send_time: float) -> None:
        """Ensure ``u`` learns edge ``{u, v}`` is gone by ``send_time + D``."""
        if u not in self._nodes:
            return
        key = (u, v)
        if key in self._pending_absence:
            return
        self._pending_absence.add(key)
        lat = self.discovery_policy.latency(u, v, False, send_time)
        fire_at = min(send_time + lat, send_time + self.discovery_bound)
        fire_at = max(fire_at, self.sim.now)
        self._push_discover(fire_at, u, v, False, True)

    def _push_discover(
        self, t: float, node_id: int, other: int, added: bool, absence: bool
    ) -> None:
        """Push one ``KIND_DISCOVER`` record (the parallel backend keys it)."""
        self.sim.queue.push_typed(
            t, PRIORITY_DELIVERY, KIND_DISCOVER, node_id, other, added,
            absence, None, "discover",
        )

    def _handle_discover(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_DISCOVER`` records.

        Verifies the change still holds at fire time; a reversed
        (transient) change is allowed to go unnoticed.  ``d=True`` marks
        the dedicated failed-send absence path, which additionally clears
        its dedup key.
        """
        if ev.d:
            self._pending_absence.discard((ev.a, ev.b))
        self._discover(ev.a, ev.b, ev.c)

    def _handle_discover_burst(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_DISCOVER_BURST`` records (``E_0``).

        Re-expands the cardinality into the dispatch tallies like a
        delivery burst.  With a valid table, bulk sends and no edge flip
        ever, every constituent is a live ``discover(add)`` and the table
        runs them (:meth:`~repro.core.batch.NodeArrayTable.discover_burst`);
        under churn, tracing or a declined gate the constituents replay
        through the scalar discovery in record order, exactly as their
        individual records would have been dispatched.
        """
        card = self._count_constituents(ev, KIND_DISCOVER_BURST, KIND_DISCOVER)
        table = self._ensure_batch_table()
        if table is not False:
            assert not isinstance(table, bool)
            if table.can_bulk_send():
                table.discover_burst(ev)
                self.stats.discoveries_delivered += card
                return
        for i, (node_id, other) in enumerate(zip(ev.a, ev.b)):
            self._enter_constituent(ev, i)
            self._discover(node_id, other, True)

    def _discover(self, node_id: int, other: int, added: bool) -> None:
        """One discovery notification at fire time (see :meth:`_handle_discover`)."""
        if self.graph.has_edge(node_id, other) == added:
            self.stats.discoveries_delivered += 1
            if self._trace is not None:
                kind = "discover_add" if added else "discover_remove"
                self._trace.record(self.sim.now, kind, node_id, other)
            node = self._node_seq[node_id]
            assert node is not None
            tracer = self._tracer
            if tracer is not None:
                tracer.discover(node_id, other, self.sim.now, added)
            if added:
                node.on_discover_add(other)
            else:
                node.on_discover_remove(other)
            if tracer is not None:
                tracer.reset_current()
        else:
            self.stats.discoveries_skipped += 1
