"""Stream operators.

Operators are the units the runtime scheduler executes (Sec. 5: Flink
*Tasks*). Each operator consumes records from one or more input
:class:`~repro.spe.streams.Channel` objects, charges processing cost
against the scheduling cycle's CPU budget, and emits records downstream.

Cost model
----------
Every operator declares ``cost_per_event_ms`` — CPU milliseconds consumed
per processed event — and a design-time ``selectivity`` (output events per
input event). Measured selectivity and mean cost are also tracked at
runtime, because Klink and Highest-Rate consume *measured* values from the
runtime data-acquisition module rather than trusting declarations.

Window semantics
----------------
:class:`WindowedAggregate` and :class:`WindowedJoin` implement the blocking
operators the paper targets: events accumulate in per-pane state and only a
watermark covering a pane's deadline unblocks (fires) it. The first
watermark to fire a pane is forwarded downstream flagged as a *sweeping
watermark* (SWM), after the pane's output events (invariant (ii) of
Sec. 2.2: the output operator receives the window's events before the SWM).
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.spe.events import EventBatch, LatencyMarker, Watermark
from repro.spe.streams import Channel, _Entry
from repro.spe.windows import Pane, WindowAssigner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.lineage import LineageTracker

# Budget below which a step loop stops rather than splitting ever-smaller
# batch fragments.
_MIN_BUDGET_MS = 1e-6


class OperatorStats:
    """Measured runtime statistics for one operator."""

    __slots__ = (
        "events_in",
        "events_out",
        "busy_ms",
        "late_events_dropped",
        "watermarks_seen",
        "panes_fired",
    )

    def __init__(self) -> None:
        self.events_in = 0.0
        self.events_out = 0.0
        self.busy_ms = 0.0
        self.late_events_dropped = 0.0
        self.watermarks_seen = 0
        self.panes_fired = 0

    @property
    def measured_selectivity(self) -> float:
        """Observed output/input ratio; falls back to 1.0 with no data."""
        if self.events_in <= 0:
            return 1.0
        return self.events_out / self.events_in

    @property
    def measured_cost_ms(self) -> float:
        """Observed CPU cost per input event; 0.0 with no data."""
        if self.events_in <= 0:
            return 0.0
        return self.busy_ms / self.events_in


class Operator:
    """Base class: a stateless unary operator applying selectivity.

    Subclasses override :meth:`_on_batch` and :meth:`_on_watermark` to
    change data/watermark handling; the budget-accounting loop in
    :meth:`step` is shared.
    """

    #: lineage tracker observer, installed by Engine when tracing is
    #: enabled; hooks fire on every FULL consumption of a queued record
    #: (a partially consumed batch keeps its final event queued, so its
    #: queue span is still open).
    lineage: Optional["LineageTracker"] = None

    def __init__(
        self,
        name: str,
        cost_per_event_ms: float,
        selectivity: float = 1.0,
        out_bytes_per_event: int = 100,
        n_inputs: int = 1,
    ) -> None:
        if cost_per_event_ms < 0:
            raise ValueError(f"negative cost: {cost_per_event_ms}")
        if selectivity < 0:
            raise ValueError(f"negative selectivity: {selectivity}")
        if n_inputs < 1:
            raise ValueError(f"operator needs >= 1 input: {n_inputs}")
        self.name = name
        self.cost_per_event_ms = float(cost_per_event_ms)
        #: transient cost scaling set by fault injection (interference /
        #: slowdown episodes); 1.0 under normal operation. Inflates the
        #: *measured* cost, which is what runtime-adaptive policies see.
        self.cost_multiplier = 1.0
        self.selectivity = float(selectivity)
        self.out_bytes_per_event = int(out_bytes_per_event)
        self.inputs: List[Channel] = [
            Channel(f"{name}.in{i}", owner=self) for i in range(n_inputs)
        ]
        for i, channel in enumerate(self.inputs):
            channel._consumer_index = i
        self.output: Optional[Channel] = None  # wired by Query
        self.stats = OperatorStats()
        # Memoized queue aggregates: schedulers, the memory policy, the
        # audit log, and the telemetry sampler all read queued_events /
        # queued_bytes several times per scheduling cycle. The input
        # channels mark this flag on every enqueue/dequeue, so the sums
        # are recomputed at most once per channel mutation instead of on
        # every read (byte-identical: the same sum over the same values).
        self._queues_dirty = True
        self._queued_events_memo = 0.0
        self._queued_bytes_memo = 0.0

    # -- wiring --------------------------------------------------------------

    def connect(self, downstream: "Operator", input_index: int = 0) -> None:
        """Wire this operator's output to ``downstream``'s input channel."""
        self.output = downstream.inputs[input_index]  # klink: transient[build-time wiring, fixed for the life of the topology]

    # -- scheduler-facing introspection ---------------------------------------

    def _refresh_queue_memo(self) -> None:
        # Plain loops over the channel fields (same left-to-right float
        # adds as the generator-expression sums they replace; ``sum``
        # starts from int 0, and 0 + float == 0.0 + float bit-for-bit).
        events = 0.0
        nbytes = 0.0
        for ch in self.inputs:
            events += ch._queued_events
            nbytes += ch._queued_bytes
        self._queued_events_memo = events  # klink: transient[memo over channel state, which is captured]
        self._queued_bytes_memo = nbytes  # klink: transient[memo over channel state, which is captured]
        self._queues_dirty = False  # klink: transient[memo validity flag; restore marks it dirty]

    @property
    def queued_events(self) -> float:
        """Payload events waiting across all input channels."""
        if self._queues_dirty:
            self._refresh_queue_memo()
        return self._queued_events_memo

    @property
    def queued_bytes(self) -> float:
        if self._queues_dirty:
            self._refresh_queue_memo()
        return self._queued_bytes_memo

    @property
    def state_events(self) -> float:
        """Events buffered in operator state; stateless ops hold none."""
        return 0.0

    @property
    def state_bytes(self) -> float:
        """Memory held in operator state (windows); stateless ops hold none."""
        return 0.0

    def has_work(self) -> bool:
        """True when any input channel holds a record."""
        for ch in self.inputs:
            if ch._entries:
                return True
        return False

    def next_deadline(self, after: float) -> float:
        """Earliest window deadline after event-time ``after`` (inf if none)."""
        return math.inf

    # -- execution -------------------------------------------------------------

    def step(self, budget_ms: float, now: float) -> float:
        """Process queued records within ``budget_ms``; return ms consumed.

        Inputs are drained round-robin so multi-input operators make
        progress on every stream: each round splits the remaining budget
        evenly across the inputs that still hold records, so one stream's
        oversized batch cannot starve the others (a join must keep all its
        watermark fronts moving). Emission order preserves FIFO per input.
        """
        if len(self.inputs) == 1:
            return self._drain(self.inputs[0], budget_ms, 0.0, now)
        used = 0.0
        progressed = True
        while budget_ms - used > _MIN_BUDGET_MS and progressed:
            progressed = False
            active = [ch for ch in self.inputs if ch._entries]
            if not active:
                break
            if len(active) == 1:
                # Only one input holds records: the round-robin loop
                # degenerates (share == grant == budget - used per record,
                # division by 1 is exact) into the single-input drain.
                # Nothing is pushed to this operator's own inputs during
                # its step (the topology is acyclic), so the other inputs
                # stay empty for the rest of the budget.
                return self._drain(active[0], budget_ms, used, now)
            share = (budget_ms - used) / len(active)
            for channel in active:
                grant = min(share, budget_ms - used)
                if grant <= _MIN_BUDGET_MS:
                    break
                entry = channel.pop()
                if entry is None:
                    continue
                used += self._dispatch(
                    entry.record, channel, entry.enqueued_at, grant, now
                )
                progressed = True
        return used

    def _drain(
        self, channel: Channel, budget_ms: float, used: float, now: float
    ) -> float:
        """Drain the one input holding records within the budget,
        popping and dispatching one record at a time; returns the updated
        ``used``."""
        entries = channel._entries
        while budget_ms - used > _MIN_BUDGET_MS and entries:
            # Channel.pop inlined: control records need no payload
            # accounting.
            entry = entries.popleft()
            record = entry.record
            if type(record) is EventBatch:
                channel._pop_batch_accounting(record)
            used += self._dispatch(
                record, channel, entry.enqueued_at, budget_ms - used, now
            )
        return used

    def _dispatch(
        self,
        record: object,
        channel: Channel,
        enqueued_at: float,
        budget_ms: float,
        now: float,
    ) -> float:
        # Exact-type checks: queue records are exactly EventBatch,
        # Watermark, or LatencyMarker.
        if type(record) is EventBatch:
            return self._consume_batch(record, channel, enqueued_at, budget_ms, now)
        if type(record) is Watermark:
            self.stats.watermarks_seen += 1
            cost = min(self.cost_per_event_ms * self.cost_multiplier, budget_ms)
            self._on_watermark(record, channel._consumer_index, now)
            self.stats.busy_ms += cost
            return cost
        if isinstance(record, LatencyMarker):
            cost = min(self.cost_per_event_ms * self.cost_multiplier, budget_ms)
            self._emit(record, now)
            self.stats.busy_ms += cost
            return cost
        raise TypeError(f"unknown record type: {type(record)!r}")

    def _consume_batch(
        self,
        batch: EventBatch,
        channel: Channel,
        enqueued_at: float,
        budget_ms: float,
        now: float,
    ) -> float:
        full_cost = batch.count * self.cost_per_event_ms * self.cost_multiplier
        if full_cost <= budget_ms or self.cost_per_event_ms == 0.0:
            self.stats.events_in += batch.count
            self.stats.busy_ms += full_cost
            self._on_batch(batch, channel._consumer_index, now)
            if self.lineage is not None:
                self.lineage.on_consumed(
                    self, batch.t_start, batch.t_end, enqueued_at, channel, now
                )
            return full_cost
        # Budget covers only part of the batch: process the affordable
        # fraction, return the remainder to the head of the queue.
        fraction = budget_ms / full_cost
        head = batch.split_fraction(fraction)
        tail = batch.split_fraction(1.0 - fraction) if fraction < 1.0 else None
        self.stats.events_in += head.count
        self.stats.busy_ms += budget_ms
        self._on_batch(head, channel._consumer_index, now)
        if tail is not None and tail.count > 0:
            channel.push_front(tail, enqueued_at)
        return budget_ms

    # -- record handlers (overridden by subclasses) ------------------------------

    def _on_batch(self, batch: EventBatch, input_index: int, now: float) -> None:
        out_count = batch.count * self.selectivity
        if out_count > 0:
            self._emit(
                EventBatch(
                    count=out_count,
                    t_start=batch.t_start,
                    t_end=batch.t_end,
                    delay=batch.delay,
                    bytes_per_event=self.out_bytes_per_event,
                ),
                now,
            )

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        self._emit(wm, now)

    def _emit(self, record: object, now: float) -> None:
        output = self.output
        if type(record) is EventBatch:
            self.stats.events_out += record.count
            if output is not None:
                output.push(record, now)
        elif output is not None:
            # Control record (watermark/marker): Channel.push inlined —
            # no payload accounting, just the entry append (or the
            # in-flight queue on a latency channel).
            if output.latency_ms > 0.0:
                output._pending.append(_Entry(record, now + output.latency_ms))
            else:
                output._entries.append(_Entry(record, now))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class MapOperator(Operator):
    """One-to-one transformation (projection, enrichment, parsing)."""

    def __init__(self, name: str, cost_per_event_ms: float, out_bytes_per_event: int = 100):
        super().__init__(name, cost_per_event_ms, selectivity=1.0,
                         out_bytes_per_event=out_bytes_per_event)


class FilterOperator(Operator):
    """Drops a fraction of events: selectivity < 1."""

    def __init__(
        self,
        name: str,
        cost_per_event_ms: float,
        selectivity: float,
        out_bytes_per_event: int = 100,
    ):
        if selectivity > 1.0:
            raise ValueError(f"filter selectivity must be <= 1: {selectivity}")
        super().__init__(name, cost_per_event_ms, selectivity=selectivity,
                         out_bytes_per_event=out_bytes_per_event)


class FlatMapOperator(Operator):
    """One-to-many transformation: selectivity may exceed 1."""

    def __init__(
        self,
        name: str,
        cost_per_event_ms: float,
        selectivity: float,
        out_bytes_per_event: int = 100,
    ):
        super().__init__(name, cost_per_event_ms, selectivity=selectivity,
                         out_bytes_per_event=out_bytes_per_event)


class KeyByOperator(Operator):
    """Key-partitioning marker (Flink's ``keyBy``).

    Declares the key selector under which downstream keyed windows group
    their state. Routing itself is not simulated (per-key matching does
    not affect scheduling behaviour), so the operator is a zero-cost
    stateless pass-through by default — but its *presence* is what the
    plan validator checks for upstream of keyed windows (rule KP110),
    mirroring the SPE rule that a keyed window needs a keyed stream.
    """

    def __init__(
        self,
        name: str,
        key: str,
        cost_per_event_ms: float = 0.0,
        out_bytes_per_event: int = 100,
    ) -> None:
        if not key:
            raise ValueError("key selector must be a non-empty field name")
        super().__init__(name, cost_per_event_ms, selectivity=1.0,
                         out_bytes_per_event=out_bytes_per_event)
        self.key = key


class _WindowedOperatorBase(Operator):
    """Shared pane-state machinery for windowed aggregate and join."""

    def __init__(
        self,
        name: str,
        assigner: WindowAssigner,
        cost_per_event_ms: float,
        output_events_per_pane: float,
        state_bytes_per_event: int,
        out_bytes_per_event: int,
        incremental: bool,
        n_inputs: int,
        fire_cost_per_event_ms: float | None = None,
    ) -> None:
        super().__init__(
            name,
            cost_per_event_ms,
            selectivity=1.0,  # true selectivity emerges from pane firing
            out_bytes_per_event=out_bytes_per_event,
            n_inputs=n_inputs,
        )
        self.assigner = assigner
        self.output_events_per_pane = float(output_events_per_pane)
        self.state_bytes_per_event = int(state_bytes_per_event)
        self.incremental = bool(incremental)
        self.fire_cost_per_event_ms = (
            cost_per_event_ms if fire_cost_per_event_ms is None
            else fire_cost_per_event_ms
        )
        # pane start -> accumulated event count
        self._panes: Dict[float, float] = {}
        self._pane_ends: Dict[float, float] = {}
        # Memoized sum over _panes: the memory model and schedulers read
        # state_events several times per cycle; mutation sites clear the
        # memo, so a hit equals a fresh sum over the unchanged table.
        self._state_events_memo: Optional[float] = None  # klink: transient[memo over _panes, which is captured]
        # Min-heap of (deadline, pane start), kept in lockstep with
        # _pane_ends: pushed when a pane is first buffered, popped when it
        # fires. Gives O(log n) firing and O(1) next_deadline instead of
        # scanning + sorting the whole pane table on every watermark and
        # every scheduler collect. Heap order (end, then start) matches
        # the firing order of a per-watermark sort because a single
        # assigner's pane ends are monotone in their starts.
        self._pane_heap: List[Tuple[float, float]] = []
        # per-input last watermark (event-time clock per stream)
        self._input_watermarks: List[float] = [-math.inf] * n_inputs
        self._event_clock: float = -math.inf  # combined (min) watermark

    # -- state introspection ------------------------------------------------------

    @property
    def state_events(self) -> float:
        """Events currently buffered in window state."""
        memo = self._state_events_memo
        if memo is None:
            memo = self._state_events_memo = sum(self._panes.values())
        return memo

    def _invalidate_state_memo(self) -> None:
        """Drop the memoized pane mass (e.g. after a restore rebuilt the
        pane table); the next ``state_events`` read re-sums ``_panes``."""
        self._state_events_memo = None  # klink: transient[memo over _panes, which is captured]

    @property
    def state_bytes(self) -> float:
        if self.incremental:
            # Online (partial) aggregation keeps one accumulator per pane
            # output, not the raw events.
            return (
                len(self._panes)
                * self.output_events_per_pane
                * self.state_bytes_per_event
            )
        return self.state_events * self.state_bytes_per_event

    @property
    def event_clock(self) -> float:
        """Current combined event-time clock (min over input watermarks)."""
        return self._event_clock

    def next_deadline(self, after: float) -> float:
        # Every buffered pane's end is > the event clock (due panes are
        # popped the moment the clock advances, late panes are never
        # buffered), so the heap head IS the earliest pending deadline.
        if self._pane_heap:
            return self._pane_heap[0][0]
        return self.assigner.next_deadline(max(after, self._event_clock, 0.0))

    def pending_pane_deadlines(self) -> List[float]:
        """Deadlines of panes buffered but not yet fired (sorted)."""
        return sorted(end for end, _ in self._pane_heap)

    # -- record handlers -----------------------------------------------------------

    def _on_batch(self, batch: EventBatch, input_index: int, now: float) -> None:
        """Add the batch's events, spread over ``[t_start, t_end]``, to
        their panes, dropping the mass behind the input's watermark."""
        t_start = batch.t_start
        t_end = batch.t_end
        count = batch.count
        clock = self._input_watermarks[input_index]
        if t_end <= clock:
            # Entirely late: every event precedes the stream's watermark.
            self.stats.late_events_dropped += count
            return
        if t_start < clock < t_end:
            # Partially late: drop the uniform mass before the watermark.
            keep = (t_end - clock) / (t_end - t_start)
            self.stats.late_events_dropped += count * (1.0 - keep)
            count *= keep
            t_start = clock
        panes = self._panes
        pane_ends = self._pane_ends
        event_clock = self._event_clock
        self._state_events_memo = None
        for p_start, p_end, pane_count in self.assigner.assign_range_raw(
            t_start, t_end, count
        ):
            if p_end <= event_clock:
                # Pane already fired; late contribution is dropped (Flink's
                # default allowed-lateness of zero).
                self.stats.late_events_dropped += pane_count
                continue
            panes[p_start] = panes.get(p_start, 0.0) + pane_count
            if p_start not in pane_ends:
                pane_ends[p_start] = p_end
                heapq.heappush(self._pane_heap, (p_end, p_start))

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        if wm.timestamp <= self._input_watermarks[input_index]:
            # Out-of-order watermark: dropped (Flink's behaviour, Sec. 2.2).
            return
        wms = self._input_watermarks
        wms[input_index] = wm.timestamp
        # min() over one (or two) elements, inlined: single-input windowed
        # operators dominate, and ties resolve to the first element just
        # as the builtin does.
        if len(wms) == 1:
            combined = wms[0]
        elif len(wms) == 2:
            a, b = wms
            combined = a if a <= b else b
        else:
            combined = min(wms)
        if combined <= self._event_clock:
            return  # other inputs still hold the clock back; nothing fires
        self._event_clock = combined
        fired = self._fire_due_panes(combined, now)
        # Forward the watermark after any window output (invariant ii).
        # It is an SWM for downstream if it unblocked at least one pane here
        # or was already sweeping upstream.
        self._emit(
            Watermark(combined, source_id=0, is_swm=fired or wm.is_swm), now
        )

    def _fire_due_panes(self, up_to: float, now: float) -> bool:
        heap = self._pane_heap
        if not heap or heap[0][0] > up_to:
            return False
        self._state_events_memo = None
        lineage = self.lineage
        while heap and heap[0][0] <= up_to:
            end, start = heapq.heappop(heap)
            del self._pane_ends[start]
            buffered = self._panes.pop(start, 0.0)
            out_count = self._pane_output_count(buffered)
            self.stats.panes_fired += 1
            fire_cost = out_count * self.fire_cost_per_event_ms * self.cost_multiplier
            self.stats.busy_ms += fire_cost
            if out_count > 0:
                self._emit(
                    EventBatch(
                        count=out_count,
                        t_start=end,
                        t_end=end,
                        delay=0.0,
                        bytes_per_event=self.out_bytes_per_event,
                    ),
                    now,
                )
            if lineage is not None:
                lineage.on_pane_fire(self, end, out_count, now)
        return True

    def _pane_output_count(self, buffered: float) -> float:
        """Events emitted when a pane holding ``buffered`` events fires."""
        raise NotImplementedError


class WindowedAggregate(_WindowedOperatorBase):
    """Keyed windowed aggregation (e.g. per-campaign counts in YSB).

    Emits ``output_events_per_pane`` records per fired pane — one per
    distinct key/group — independent of how many raw events the pane held,
    which is what gives window operators their characteristically low
    selectivity at SWM ingestion (Sec. 3.4).

    A window emitting more than one record per pane is *keyed* (its
    outputs are per-key aggregates) and must declare its key selector:
    either pass ``key_by`` here or place a :class:`KeyByOperator`
    upstream — the plan validator rejects keyed windows with neither
    (rule KP110), the static analogue of Flink refusing a keyed window
    on an un-keyed stream.
    """

    def __init__(
        self,
        name: str,
        assigner: WindowAssigner,
        cost_per_event_ms: float,
        output_events_per_pane: float = 1.0,
        state_bytes_per_event: int = 100,
        out_bytes_per_event: int = 100,
        incremental: bool = True,
        key_by: Optional[str] = None,
    ):
        super().__init__(
            name,
            assigner,
            cost_per_event_ms,
            output_events_per_pane=output_events_per_pane,
            state_bytes_per_event=state_bytes_per_event,
            out_bytes_per_event=out_bytes_per_event,
            incremental=incremental,
            n_inputs=1,
        )
        self.key_by = key_by

    def _pane_output_count(self, buffered: float) -> float:
        return min(self.output_events_per_pane, buffered) if buffered else 0.0


class WindowedJoin(_WindowedOperatorBase):
    """Windowed join over ``n_inputs`` streams (Sec. 3.3).

    The operator unblocks a pane only once *every* input stream's watermark
    passes the pane deadline (the combined event clock is the minimum of
    the per-input watermarks). Join output per pane is modelled by
    ``join_selectivity`` — output events per buffered input event — since
    key-level matching does not affect scheduling behaviour.
    """

    def __init__(
        self,
        name: str,
        assigner: WindowAssigner,
        cost_per_event_ms: float,
        n_inputs: int = 2,
        join_selectivity: float = 0.1,
        state_bytes_per_event: int = 100,
        out_bytes_per_event: int = 100,
    ):
        if n_inputs < 2:
            raise ValueError(f"join needs >= 2 inputs: {n_inputs}")
        super().__init__(
            name,
            assigner,
            cost_per_event_ms,
            output_events_per_pane=0.0,  # output scales with input instead
            state_bytes_per_event=state_bytes_per_event,
            out_bytes_per_event=out_bytes_per_event,
            incremental=False,  # joins buffer raw events until the pane fires
            n_inputs=n_inputs,
        )
        self.join_selectivity = float(join_selectivity)

    def _pane_output_count(self, buffered: float) -> float:
        return buffered * self.join_selectivity

    def input_watermark(self, input_index: int) -> float:
        """Last watermark seen on one input (used by Klink's join slack)."""
        return self._input_watermarks[input_index]


class CountWindowedAggregate(Operator):
    """Count-based windowed aggregation (Sec. 2.1's count-based windows).

    A count-based window function closes a window after ``size`` events:
    the deadline is the arrival of the ``size``-th event rather than an
    event-time instant, so watermarks play no role in unblocking it and
    Klink's SWM machinery treats such queries as deadline-free (they are
    scheduled after deadline-bearing queries, which is correct: their
    output is never "due" at a wall-clock point).

    Windows tumble by count: events are accumulated until ``size`` is
    reached, then ``output_events_per_window`` records are emitted.
    Fractional batch mass carries over exactly.
    """

    def __init__(
        self,
        name: str,
        size: int,
        cost_per_event_ms: float,
        output_events_per_window: float = 1.0,
        state_bytes_per_event: int = 100,
        out_bytes_per_event: int = 100,
        incremental: bool = True,
    ) -> None:
        if size <= 0:
            raise ValueError(f"count window size must be positive: {size}")
        super().__init__(name, cost_per_event_ms, selectivity=1.0,
                         out_bytes_per_event=out_bytes_per_event)
        self.size = int(size)
        self.output_events_per_window = float(output_events_per_window)
        self.state_bytes_per_event = int(state_bytes_per_event)
        self.incremental = bool(incremental)
        self._accumulated = 0.0
        self.windows_fired = 0

    @property
    def state_events(self) -> float:
        return self._accumulated

    @property
    def state_bytes(self) -> float:
        if self.incremental:
            return self.output_events_per_window * self.state_bytes_per_event
        return self._accumulated * self.state_bytes_per_event

    def _on_batch(self, batch: EventBatch, input_index: int, now: float) -> None:
        self._accumulated += batch.count
        while self._accumulated >= self.size:
            self._accumulated -= self.size
            self.windows_fired += 1
            if self.output_events_per_window > 0:
                self._emit(
                    EventBatch(
                        count=self.output_events_per_window,
                        t_start=batch.t_end,
                        t_end=batch.t_end,
                        delay=0.0,
                        bytes_per_event=self.out_bytes_per_event,
                    ),
                    now,
                )

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        # Count windows are watermark-agnostic: forward progress untouched.
        self._emit(wm, now)


class SinkOperator(Operator):
    """Terminal (output) operator recording output latencies.

    Latency of the stream is the propagation delay of SWMs: for each SWM
    reaching the sink, ``now - swm.timestamp`` (Sec. 6.1.2). Latency
    markers record source-to-sink propagation of individual probes.
    """

    def __init__(self, name: str, cost_per_event_ms: float = 0.0):
        super().__init__(name, cost_per_event_ms, selectivity=1.0)
        self.swm_latencies: List[Tuple[float, float]] = []  # (now, latency)
        self.marker_latencies: List[Tuple[float, float]] = []
        self.events_delivered: float = 0.0

    def _on_batch(self, batch: EventBatch, input_index: int, now: float) -> None:
        self.events_delivered += batch.count

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        if wm.is_swm:
            self.swm_latencies.append((now, now - wm.timestamp))

    def _dispatch(self, record, channel, enqueued_at, budget_ms, now):
        if isinstance(record, LatencyMarker):
            cost = min(self.cost_per_event_ms, budget_ms)
            self.marker_latencies.append((now, now - record.created_at))
            self.stats.busy_ms += cost
            return cost
        return super()._dispatch(record, channel, enqueued_at, budget_ms, now)
