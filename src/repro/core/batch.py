"""Dense struct-of-arrays batch execution over DCSA nodes.

The scalar kernel dispatches one Python ``handle()`` per event, which caps
practical scale around 10k nodes.  At large ``n`` with identical hardware
rates (the ``huge_sync_*`` workloads), deliveries and ticks collide on the
same timestamps in runs of O(n) records; this module executes such a run in
a handful of phased loops plus numpy array steps instead of n full
event dispatches.

:class:`NodeArrayTable` is the dense mirror of the per-simulator
:class:`~repro.core.node.NodeTable`: a validated snapshot of every driver,
its :class:`~repro.core.protocol.DCSACore` and its constant hardware rate,
with the static columns (rates) held as numpy arrays and the dynamic
columns (``L``, ``Lmax``, per-neighbour estimates) gathered from the cores
on demand.  The cores remain the single source of truth, which is what
keeps the scalar fallback path and all read-only views (recorder, oracle,
tests) valid at any instant -- a batch step leaves *exactly* the state the
equivalent scalar dispatch sequence would have left.

**Parity contract.**  The batch handlers below are bit-identical to scalar
dispatch, proven piecewise:

* per-record phases run in scalar record order wherever an operation can
  observe another record's effects (transport sends, FIFO clamps, timer
  re-arms);
* operations hoisted across records touch disjoint per-core state and
  commute (jump application vs. another core's Gamma refresh);
* the vectorized AdjustClock (:func:`~repro.core.dcsa.adjust_clocks_batch`)
  performs the scalar arithmetic in the scalar association order;
* event-queue pushes keep their per-class relative order, and cross-class
  ties are decided by priority before sequence numbers, so the permuted
  sequence numbers are unobservable.

Three structural shortcuts keep the per-message cost near the floor, each
with its own equivalence argument:

* **Bulk sends** bypass :meth:`~repro.network.transport.Transport.send`
  when the delay is a positive constant, tracing is off and no edge has
  ever flipped: the FIFO clamp provably never binds under a constant delay
  (per-link delivery times are monotone in send times), every believed
  neighbour exists (discovery only reports real edges and none was ever
  removed), and the delay bound was validated once at registration.
* **Burst records** (:data:`~repro.sim.events.KIND_DELIVER_BURST`): all
  sends of one tick run share one delivery time, so they travel as a
  single heap record carrying parallel ``u``/``v``/``payload`` lists in
  exact scalar send order.  The constituents would have held contiguous
  sequence numbers, so the burst -- ordered by its first constituent's
  position -- interleaves with any other same-time records exactly as the
  individual records would have; the dispatch handler re-expands the
  cardinality into ``events_dispatched``/per-kind tallies and the
  delivered counter.
* **Tick groups** (:data:`~repro.sim.events.KIND_TICK_BURST`): the tick
  timers of drivers sharing a deadline travel as one heap record, split
  per deadline whenever they diverge (see :func:`_push_ticks`).
* **Lazy lost-timer re-arm**: instead of cancel-plus-push per message, the
  live ``lost`` record's deadline slot is advanced in place and the queue
  re-inserts it if the stale heap entry ever surfaces (see
  :mod:`repro.sim.queue`).  A record fires once, at its final deadline,
  exactly like the scalar chain of cancelled-and-re-pushed records; ties
  keep scalar order because extension order equals the original per-class
  push order.

Every batch of bulk sends leaves through one emission step,
:meth:`NodeArrayTable._emit_sends`, which pushes the burst record.  It is
the kernel's only routing decision, so the parallel shard backend
(:mod:`repro.sim.par`) runs this kernel unchanged over each shard's node
range and overrides that step alone.

**The t = 0 wiring** rides the same kernel.  :func:`start_ticks` arms the
population's first ticks as tick groups instead of dispatching ``Start``
per node, and ``E_0`` is announced as one
:data:`~repro.sim.events.KIND_DISCOVER_BURST` record that
:meth:`NodeArrayTable.discover_burst` executes in record order, greetings
leaving as one delivery burst (see
:meth:`~repro.network.transport.Transport.announce_initial_edges`).

The table only builds -- and the batch handlers only engage -- when the
execution provably fits the fast path; anything else (baseline cores,
drifting clock types, effect logs, tracing, adversaries that swap clocks)
falls back to scalar dispatch with no behavioural difference.  The timer
batch handler additionally requires *positive constant* delay and
discovery policies: with a zero or randomized delay, a tick's send could
schedule a same-timestamp delivery that scalar dispatch would run *before*
the remaining timers of the run, which pre-popping cannot honour.  That
gate is decided at transport construction from the policy types alone
(see :class:`~repro.network.transport.Transport`); deliver batches need
no such gate -- delivery handlers never send.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, cast

import numpy as np
import numpy.typing as npt

from ..sim.clocks import ConstantRateClock
from ..sim.events import (
    KIND_DELIVER_BURST,
    KIND_TICK_BURST,
    KIND_TIMER,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
    ScheduledEvent,
)
from ..sim.simulator import Simulator
from .dcsa import adjust_clocks_batch
from .estimates import NeighborEstimate
from .protocol import DCSACore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..network.transport import Transport
    from .node import ClockSyncNode

__all__ = ["NodeArrayTable", "build_node_array_table", "REASON_KEY"]

#: ``sim.subsystems`` key under which the built table (or ``False`` for a
#: permanently-invalid execution) is cached.
SUBSYSTEM_KEY = "node_array_table"

#: ``sim.subsystems`` key under which :func:`build_node_array_table` records
#: why it declined to build (the *first* failing gate, as a human-readable
#: string).  Surfaced on ``RunResult.summary()`` and ``--profile`` output so
#: a silent scalar fallback is explainable after the fact.
REASON_KEY = "node_array_table_reason"

_TICK = "tick"


class NodeArrayTable:
    """Dense, validated driver/core/rate columns for batch execution.

    Construct via :func:`build_node_array_table`, which performs the
    validity checks; the constructor itself only snapshots.
    """

    __slots__ = (
        "sim",
        "transport",
        "lo",
        "hi",
        "drivers",
        "cores",
        "rates",
        "rates_arr",
        "tick_interval",
        "delta_t_prime",
        "b0",
        "b_intercept",
        "b_slope",
        "send_delay",
        "_ups_sorted",
    )

    def __init__(
        self,
        sim: Simulator,
        transport: "Transport",
        drivers: "list[ClockSyncNode]",
        rates: list[float],
    ) -> None:
        self.sim = sim
        self.transport = transport
        #: The transport's node range ``[lo, hi)`` (see :func:`_node_range`);
        #: the column lists are indexed by global node id, with ``None`` /
        #: ``0.0`` holes below ``lo``.
        self.lo, self.hi = _node_range(transport)
        self.drivers = drivers
        self.cores = cast(
            "list[DCSACore]",
            [d.core if d is not None else None for d in drivers],
        )
        #: Constant hardware rates; the plain list serves the scalar loops,
        #: the array (over ``[lo, hi)``) the dense column reads.
        self.rates = rates
        self.rates_arr: npt.NDArray[np.float64] = np.asarray(
            rates[self.lo : self.hi], dtype=np.float64
        )
        #: ``B`` function coefficients, shared by every core (the builder
        #: verified a single ``params`` object).
        c0 = self.cores[self.lo]
        params = c0.params
        self.tick_interval = params.tick_interval
        self.delta_t_prime = params.delta_t_prime
        self.b0 = c0._b0
        self.b_intercept = c0._b_intercept
        self.b_slope = c0._b_slope
        #: The constant per-message delay when the transport's policy is a
        #: valid positive constant (set by :func:`build_node_array_table`),
        #: else ``None``; gates the bulk-send path.
        self.send_delay: float | None = None
        #: Per-node cached ``(sorted(upsilon), (node_id,) * k)`` send
        #: template; only consulted while ``edge_flips == 0``, where the
        #: believed-neighbour set grows monotonically, so a length match
        #: proves the cache current.
        self._ups_sorted: list[tuple[list[int], tuple[int, ...]] | None] = (
            [None] * len(drivers)
        )

    # ------------------------------------------------------------------ #
    # Batch handlers
    # ------------------------------------------------------------------ #

    def deliver_batch(self, records: list[ScheduledEvent]) -> None:
        """Execute a same-timestamp run of individual ``KIND_DELIVER`` records.

        Called by :meth:`Transport._handle_deliver_batch` *after* its
        per-call guards (no tracing, no churn ever observed) ruled out the
        drop path, so every record is a plain delivery ``u -> v`` of an
        ``(L, Lmax)`` update.
        """
        dest_msgs: dict[int, list[Any]] = {}
        get = dest_msgs.get
        for ev in records:
            v = ev.b
            lst = get(v)
            if lst is None:
                dest_msgs[v] = [ev.a, ev.c]
            else:
                lst.append(ev.a)
                lst.append(ev.c)
        self._process_dest_msgs(dest_msgs)

    def deliver_burst(
        self, us: list[int], vs: list[int], payloads: list[Any]
    ) -> None:
        """Execute one burst record's constituent deliveries (see module doc)."""
        dest_msgs: dict[int, list[Any]] = {}
        get = dest_msgs.get
        for u, v, payload in zip(us, vs, payloads):
            lst = get(v)
            if lst is None:
                dest_msgs[v] = [u, payload]
            else:
                lst.append(u)
                lst.append(payload)
        self._process_dest_msgs(dest_msgs)

    def _process_dest_msgs(self, dest_msgs: dict[int, list[Any]]) -> None:
        """Apply same-timestamp deliveries grouped per destination.

        ``dest_msgs[v]`` is the flat list ``[u0, payload0, u1, payload1,
        ...]`` in per-destination record order.  Scalar dispatch per message
        is: sync ``v``; cancel ``lost(u)``; Gamma track/refresh; raise
        ``Lmax``; AdjustClock; re-arm ``lost(u)``.  The batch form runs each
        destination *to completion* before the next: distinct destinations
        touch disjoint cores and timers, so interleaving order across
        destinations is unobservable -- the only cross-destination effects
        are fresh lost-timer pushes, whose permuted sequence numbers can
        only reorder same-``(time, priority)`` lost timers of *different*
        destinations, and those handlers commute.  Within a destination the
        per-message phases run in exact scalar order.

        Two per-destination invariants make the inner loop cheap:

        * the destination syncs once (later messages of the run find
          ``dh == 0`` in scalar execution too), so ``H_v`` -- and with it
          every edge age and the lost-timer deadline -- is *fixed* for the
          whole timestamp;
        * therefore each Gamma row's AdjustClock candidate
          ``L^u_v + B(age)`` is computed once and patched only for the row
          the current message refreshes (bitwise equal to the scalar
          recomputation: same operations, same operands), and the running
          scalar ``min`` equals ``min()`` over the candidate table.
        """
        sim = self.sim
        now = sim.now
        cores = self.cores
        drivers = self.drivers
        rates = self.rates
        queue = sim.queue
        free = queue._free
        heap = queue._heap
        heappush = heapq.heappush
        dtp = self.delta_t_prime
        b0 = self.b0
        intercept = self.b_intercept
        slope = self.b_slope
        seq = queue._seq
        pushed = 0
        for v, msgs in dest_msgs.items():
            core = cores[v]
            rows = core.gamma._rows
            h = rates[v] * now
            dh = h - core.h_last
            # Ages are fixed for the timestamp: AdjustClock candidates are
            # computed once per row (fused with the estimate advance of the
            # sync -- same updated ``l_est`` value) and patched only for
            # the row each message refreshes.
            cand: dict[int, float] = {}
            if dh != 0.0:
                core._L += dh
                core._Lmax += dh
                core.h_last = h
                for u, row in rows.items():
                    le = row.l_est + dh
                    row.l_est = le
                    b = intercept - slope * (h - row.added_h)
                    if b < b0:
                        b = b0
                    cand[u] = le + b
            else:
                for u, row in rows.items():
                    b = intercept - slope * (h - row.added_h)
                    if b < b0:
                        b = b0
                    cand[u] = row.l_est + b
            d = drivers[v]
            d._t_last = now
            # The re-armed lost deadline is likewise message-independent.
            fire_t = (h + dtp) / rates[v]
            if fire_t < now:
                fire_t = now
            timers = d._timers
            L = core._L
            lmax = core._Lmax
            it = iter(msgs)
            for u, payload in zip(it, it):
                l_v = payload[0]
                row = rows.get(u)
                if row is None:
                    # Gamma (re-)entry: C^v_u := H_u now (pseudocode 17-19);
                    # age 0 exactly, so b = max(intercept, b0).
                    rows[u] = NeighborEstimate(h, l_v)
                    b = intercept
                    if b < b0:
                        b = b0
                    cand[u] = l_v + b
                elif l_v > row.l_est:
                    row.l_est = l_v
                    b = intercept - slope * (h - row.added_h)
                    if b < b0:
                        b = b0
                    cand[u] = l_v + b
                lmax_v = payload[1]
                if lmax_v > lmax:
                    lmax = lmax_v
                # AdjustClock against the patched candidate table.
                ceiling = min(cand.values())
                if lmax < ceiling:
                    ceiling = lmax
                if ceiling > L:
                    core.total_jump += ceiling - L
                    core.jumps += 1
                    L = ceiling
                key = ("lost", u)
                prev = timers.get(key)
                if prev is not None and not prev.cancelled and prev.queued:
                    # Lazy re-arm: advance the live record's deadline in
                    # place; the queue re-inserts it if the stale heap
                    # entry surfaces first.
                    prev.c = fire_t
                else:
                    if free:
                        rec = free.pop()
                        rec.time = fire_t
                        rec.priority = PRIORITY_TIMER
                        rec.seq = seq
                        rec.kind = KIND_TIMER
                        rec.fn = None
                        rec.a = d
                        rec.b = key
                        rec.c = fire_t
                        rec.d = None
                        rec.e = None
                        rec.cancelled = False
                        rec.gen += 1
                        rec.label = "timer"
                    else:
                        queue.allocations += 1
                        rec = ScheduledEvent(
                            fire_t, PRIORITY_TIMER, seq, None, "timer",
                            kind=KIND_TIMER, a=d, b=key, c=fire_t,
                        )
                    rec.queued = True
                    heappush(heap, (fire_t, PRIORITY_TIMER, seq, rec))
                    seq += 1
                    pushed += 1
                    timers[key] = rec
            core._L = L
            core._Lmax = lmax
        queue._seq = seq
        queue._live += pushed

    def handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        """Execute a same-timestamp run of ``KIND_TIMER`` records.

        Only reached when the delay and discovery policies are positive
        constants (see module docstring), so nothing a tick handler
        schedules can land at the current timestamp.  Mixed-key runs (any
        ``lost`` timer present) replay scalar dispatch in record order --
        already a win over per-event kernel turns; all-tick runs go
        through :meth:`_tick_drivers` and then re-arm via
        :func:`_push_ticks`, handing over the fired records so singleton
        deadlines re-push in place (each just fired, its payload is
        already correct, and the kernel skips requeued records when
        recycling).
        """
        for ev in records:
            if ev.b != _TICK:
                # Through the registered KIND_TIMER handler, so a
                # dispatch wrapper (the parallel backend's provenance
                # stamp) sees every record.
                fire = self.sim._handlers[KIND_TIMER]
                for rec in records:
                    fire(rec)  # type: ignore[misc]
                return
        drivers = [ev.a for ev in records]
        fts = self._tick_drivers(drivers)
        _push_ticks(self.sim, drivers, fts, records)

    def handle_tick_group(self, ev: ScheduledEvent) -> None:
        """Execute one tick-group record (see :data:`KIND_TICK_BURST`).

        Semantically identical to :meth:`handle_timer_batch` over the
        constituent drivers' tick records, in list order (which is the
        original record order).  In the steady state every constituent's
        next deadline coincides again and the group re-pushes *itself* --
        same record, same driver list, fresh sequence number -- so a tick
        cycle of n nodes costs one heappush/heappop pair and zero
        ``_timers`` writes (each driver's entry already aliases the
        group).  If the deadlines diverge, the group splits into one group
        per deadline (see :func:`_push_ticks`).
        """
        fts = self._tick_drivers(ev.a)
        if fts.count(fts[0]) == len(fts):
            # Re-armed in-run now: refresh the arm time and phase.
            ev.b = 1
            ev.d = self.sim.now
            self.sim.queue.repush(ev, fts[0])
        else:
            _push_ticks(self.sim, ev.a, fts)

    def _tick_drivers(self, drivers: "list[ClockSyncNode]") -> list[float]:
        """Run the tick handlers of ``drivers`` (in order) minus the re-arm.

        One fused loop: per driver sync + payload capture + sends (in
        scalar order -- sends consume sequence numbers in driver order),
        then the burst push, then vectorized AdjustClock.  Payloads are
        captured *before* AdjustClock exactly as the scalar handler reads
        them, and hoisting AdjustClock after the sends is sound because it
        touches only core state the sends never read.  When the bulk-send
        guards hold (no tracing, no edge flip ever), the sends leave
        through the emission step :meth:`_emit_sends`; otherwise each
        goes through :meth:`Transport.send` unchanged.  Returns each
        driver's re-arm deadline, which depends only on the post-sync
        ``H``; the caller pushes the re-arms (a different priority class
        from the burst, so their permuted sequence numbers are
        unobservable).
        """
        now = self.sim.now
        cores = self.cores
        rates = self.rates
        transport = self.transport
        bulk = self.can_bulk_send()
        send = transport.send
        ups_sorted = self._ups_sorted
        ti = self.tick_interval
        u_list: list[int] = []
        v_list: list[int] = []
        p_list: list[Any] = []
        uext = u_list.extend
        vext = v_list.extend
        pext = p_list.extend
        tick_cores: list[DCSACore] = []
        capp = tick_cores.append
        fts: list[float] = []
        ftapp = fts.append
        for d in drivers:
            nid = d.node_id
            core = cores[nid]
            h = rates[nid] * now
            dh = h - core.h_last
            if dh != 0.0:
                core._L += dh
                core._Lmax += dh
                for row in core.gamma._rows.values():
                    row.l_est += dh
                core.h_last = h
            d._t_last = now
            ups = core.upsilon
            if ups:
                payload = (core._L, core._Lmax)
                if bulk:
                    k = len(ups)
                    entry = ups_sorted[nid]
                    if entry is None or len(entry[0]) != k:
                        entry = (sorted(ups), (nid,) * k)
                        ups_sorted[nid] = entry
                    # Scalar _send bumps the counter at emission time; the
                    # batch bypasses the effect list, so count here.
                    core.messages_sent += k
                    uext(entry[1])
                    vext(entry[0])
                    pext((payload,) * k)
                else:
                    for v in sorted(ups):
                        core.messages_sent += 1
                        send(nid, v, payload)
            fire_t = (h + ti) / rates[nid]
            if fire_t < now:
                fire_t = now
            ftapp(fire_t)
            capp(core)
        if u_list:
            self._emit_sends(u_list, v_list, p_list)
        adjust_clocks_batch(tick_cores)
        return fts

    def discover_burst(self, ev: ScheduledEvent) -> None:
        """Execute one ``E_0`` discovery burst's constituents in record order.

        Called by :meth:`Transport._handle_discover_burst` after its
        guards (valid table, bulk sends, no edge flip ever) proved every
        constituent a plain ``discover(add)`` of a live edge.  Each runs
        ``DCSACore._handle_discover_add`` at scalar arithmetic: sync
        ``v``, greet ``u`` with ``(L, Lmax)``, add ``u`` to Upsilon,
        AdjustClock.  A node appears once per incident edge, and its
        later greetings carry the clock its earlier AdjustClock left, so
        the loop is strictly sequential.  The greetings would have been
        consecutive pushes into one ``(time, priority)`` class -- the
        handler pushes nothing else -- so they leave through one call of
        the emission step.
        """
        nodes: list[int] = ev.a
        others: list[int] = ev.b
        now = self.sim.now
        cores = self.cores
        drivers = self.drivers
        rates = self.rates
        b0 = self.b0
        intercept = self.b_intercept
        slope = self.b_slope
        payloads: list[Any] = []
        papp = payloads.append
        for v, u in zip(nodes, others):
            core = cores[v]
            h = rates[v] * now
            dh = h - core.h_last
            rows = core.gamma._rows
            if dh != 0.0:
                core._L += dh
                core._Lmax += dh
                for row in rows.values():
                    row.l_est += dh
                core.h_last = h
            drivers[v]._t_last = now
            L = core._L
            ceiling = core._Lmax
            papp((L, ceiling))
            core.messages_sent += 1
            core.upsilon.add(u)
            for row in rows.values():
                b = intercept - slope * (h - row.added_h)
                if b < b0:
                    b = b0
                cand = row.l_est + b
                if cand < ceiling:
                    ceiling = cand
            if ceiling > L:
                core.total_jump += ceiling - L
                core.jumps += 1
                core._L = ceiling
        self._emit_sends(nodes, others, payloads)

    def can_bulk_send(self) -> bool:
        """Whether sends may bypass :meth:`Transport.send` (module doc)."""
        transport = self.transport
        return (
            self.send_delay is not None
            and transport.edge_flips == 0
            and transport._trace is None
            and transport._tracer is None
        )

    def _emit_sends(
        self, us: list[int], vs: list[int], payloads: list[Any]
    ) -> None:
        """The emission step: route one batch of bulk sends made ``now``.

        Called once per batch (a tick fan-out, an ``E_0`` burst's
        greetings) with the sends in scalar order.  Here they leave as one
        ``KIND_DELIVER_BURST``; the parallel backend overrides this step
        alone to route them between shards (see :mod:`repro.sim.par`).
        """
        sim = self.sim
        now = sim.now
        card = len(us)
        sim.queue.push_typed(
            now + self.send_delay,  # type: ignore[operator]
            PRIORITY_DELIVERY, KIND_DELIVER_BURST, us, vs, payloads, now,
            None, "deliver+", e=card,
        )
        self.transport.stats.sent += card

    # ------------------------------------------------------------------ #
    # Dense reads (oracle sampling)
    # ------------------------------------------------------------------ #

    def clock_column(self, t: float) -> npt.NDArray[np.float64]:
        """``L_u(t)`` for nodes ``[lo, hi)`` as a dense array.

        Matches ``core.logical_clock_at(rate * t)`` bitwise: the fused
        expression evaluates ``L + (h - h_last)`` elementwise in the same
        order.
        """
        cores = self.cores[self.lo : self.hi]
        m = len(cores)
        L = np.fromiter((c._L for c in cores), np.float64, count=m)
        hl = np.fromiter((c.h_last for c in cores), np.float64, count=m)
        h = self.rates_arr * t
        result: npt.NDArray[np.float64] = L + (h - hl)
        return result

    def max_estimate_column(self, t: float) -> npt.NDArray[np.float64]:
        """``Lmax_u(t)`` for nodes ``[lo, hi)`` (scalar association)."""
        cores = self.cores[self.lo : self.hi]
        m = len(cores)
        lm = np.fromiter((c._Lmax for c in cores), np.float64, count=m)
        hl = np.fromiter((c.h_last for c in cores), np.float64, count=m)
        h = self.rates_arr * t
        result: npt.NDArray[np.float64] = lm + (h - hl)
        return result


def _node_range(transport: "Transport") -> tuple[int, int]:
    """The transport's registered node ids as one range ``[lo, hi)``.

    Serially that is every node; a parallel shard registers only its own
    contiguous range.  Derived from the dense registry (its length is the
    largest id plus one), so non-contiguous ids leave a hole inside the
    range, which the builder's per-driver gate reports.
    """
    hi = len(transport._node_seq)
    return hi - len(transport._nodes), hi


def _push_ticks(
    sim: Simulator,
    drivers: "list[ClockSyncNode]",
    fts: list[float],
    fired: list[ScheduledEvent] | None = None,
) -> None:
    """Arm the tick timers of ``drivers`` at deadlines ``fts`` (list order).

    Drivers sharing a deadline collapse into one ``KIND_TICK_BURST`` group
    record (a lone driver gets a plain ``KIND_TIMER`` record -- the
    just-fired ``fired[i]`` re-pushed in place when supplied).  Sound
    because every caller arms these timers inside one handler that pushes
    nothing else into the timer priority class: under scalar dispatch the
    drivers of one deadline would hold consecutive sequence numbers in
    their ``(time, priority)`` class, so the group -- ordered by its first
    constituent's position, with the constituents in list order -- sorts
    exactly where they would, and records of distinct deadlines never
    share a class, so their relative push order is unobservable.

    Every record carries its arm time (``d``) and phase (``1`` in-run,
    ``0`` at set-up) like :meth:`~repro.core.node.ClockSyncNode._arm_timer`
    writes them -- a plain timer in ``e``, a group (whose ``e`` is its
    cardinality) in ``b`` -- so a re-pushed record is refreshed.  The
    parallel backend derives its provenance keys from them.
    """
    queue = sim.queue
    now = sim.now
    phase = 1 if sim.in_run else 0
    buckets: dict[float, list[int]] = {}
    for i, ft in enumerate(fts):
        members = buckets.get(ft)
        if members is None:
            buckets[ft] = [i]
        else:
            members.append(i)
    for ft, idx in buckets.items():
        if len(idx) == 1:
            i = idx[0]
            d = drivers[i]
            if fired is not None:
                rec = fired[i]
                rec.d = now
                rec.e = phase
                queue.repush(rec, ft)
            else:
                rec = queue.push_typed(
                    ft, PRIORITY_TIMER, KIND_TIMER, d, _TICK, None, now, None,
                    "timer", e=phase,
                )
            d._timers[_TICK] = rec
        else:
            group = [drivers[i] for i in idx]
            grp = queue.push_typed(
                ft, PRIORITY_TIMER, KIND_TICK_BURST, group, phase, None, now,
                None, "tick+", e=len(group),
            )
            for d in group:
                d._timers[_TICK] = grp


def start_ticks(transport: "Transport", drivers: "list[ClockSyncNode]") -> bool:
    """Start a population by arming its first ticks as tick groups.

    ``Start`` on a :class:`DCSACore` arms one timer, ``tick`` after the
    core's stagger, and touches no other state (at ``t = 0`` the lazy sync
    is a no-op).  So under the constant-policy gate that registers the
    tick-group handlers, and when every driver passes the table's
    per-driver checks, the ``n`` ``Start`` dispatches reduce to pushing
    the ``n`` first-tick timers -- grouped per deadline by
    :func:`_push_ticks`, so an unstaggered population starts as a single
    group.  Returns ``False``, having done nothing, when the gate declines;
    the caller then dispatches ``Start`` per node.  A group that meets a
    declined table at dispatch replays its constituents' timers in order
    (see :meth:`Transport._handle_tick_burst`), so correctness never hangs
    on the table gate.
    """
    sim = transport.sim
    if (
        not transport._constant_policies
        or transport._trace is not None
        or transport._tracer is not None
    ):
        return False
    now = sim.now
    node_seq = transport._node_seq
    fts: list[float] = []
    for d in drivers:
        if driver_gate_reason(d.node_id, d, node_seq) is not None:
            return False
        clock = d.clock
        stagger = cast(DCSACore, d.core)._tick_stagger
        # The scalar path: DCSACore._handle_start -> SetTimer(tick,
        # stagger) -> ClockSyncNode._arm_timer.
        ft = clock.time_at(clock.value(now) + stagger)
        if ft < now:
            ft = now
        fts.append(ft)
    _push_ticks(sim, drivers, fts)
    return True


def driver_gate_reason(
    i: int, d: "ClockSyncNode | None", node_seq: list[Any]
) -> str | None:
    """Why driver slot ``i`` cannot run batched (``None`` if it can)."""
    if d is None or i >= len(node_seq) or node_seq[i] is not d:
        return f"node id {i} has no registered driver"
    if type(d.core) is not DCSACore:
        return f"node {i} runs {type(d.core).__name__}, not a plain DCSACore"
    clock = d.clock
    if type(clock) is not ConstantRateClock or clock.rate <= 0.0:
        return (
            f"node {i} clock is {type(clock).__name__}, not a "
            "positive-rate ConstantRateClock"
        )
    if d.effect_log is not None or d._tracer is not None or d.trace.enabled:
        return f"node {i} has a per-event observer attached"
    return None


def build_node_array_table(
    sim: Simulator,
    transport: "Transport",
    cls: "type[NodeArrayTable]" = NodeArrayTable,
) -> NodeArrayTable | None:
    """Validate the execution for batch dispatch and build the dense table.

    Returns the table (cached under ``sim.subsystems["node_array_table"]``)
    when every driver of the transport's node range is a plain DCSA node on
    a constant-rate clock with no observers attached, or ``None`` (cached
    as ``False`` by the caller) otherwise.  Called lazily on the first
    batch run -- after ``t = 0`` wiring, so adversary clock swaps and
    tracer attachments are visible.  ``cls`` picks the table class (the
    parallel backend's routes sends between shards).

    When additionally the delay policy is a valid positive constant, the
    table's :attr:`~NodeArrayTable.send_delay` is set, enabling the
    bulk-send/burst path of :meth:`NodeArrayTable.handle_timer_batch` (the
    timer batch handler itself is registered by the transport at
    construction, gated on the policy types).
    """
    from ..network.channels import ConstantDelay

    def _decline(reason: str) -> None:
        # First failing gate wins: a later lazy re-probe must not
        # overwrite the reason users will be debugging against.
        sim.subsystems.setdefault(REASON_KEY, reason)

    node_table = sim.subsystems.get("node_table")
    if node_table is None:
        _decline("no dense node table attached to the simulator")
        return None
    drivers: "list[ClockSyncNode | None]" = node_table.drivers
    if not drivers:
        _decline("node table is empty")
        return None
    node_seq = transport._node_seq
    if len(node_seq) != len(drivers):
        _decline("transport and node table disagree on the node population")
        return None
    if transport._trace is not None or transport._tracer is not None:
        _decline("tracing is active on the transport")
        return None
    lo, hi = _node_range(transport)
    rates = [0.0] * len(drivers)
    params: Any = None
    for i in range(lo, hi):
        d = drivers[i]
        reason = driver_gate_reason(i, d, node_seq)
        if reason is not None:
            _decline(reason)
            return None
        assert d is not None
        if params is None:
            params = d.core.params
        elif d.core.params is not params:
            _decline(f"node {i} does not share the population's SystemParams")
            return None
        rates[i] = cast(ConstantRateClock, d.clock).rate
    checked = cast("list[ClockSyncNode]", list(drivers))
    table = cls(sim, transport, checked, rates)
    delay = transport.delay_policy
    if (
        type(delay) is ConstantDelay
        and 0.0 < delay.value <= transport.max_delay + 1e-9
    ):
        table.send_delay = delay.value
    sim.subsystems[SUBSYSTEM_KEY] = table
    return table
