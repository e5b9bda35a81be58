"""Inter-operator channels.

A :class:`Channel` is the FIFO queue connecting two operators (or a source
to its first operator). It tracks the aggregate statistics the schedulers
consume: number of queued events, queued bytes, and the engine-clock time
at which the head record arrived (FCFS orders queries by this).

Every queue entry holds exactly one record: an
:class:`~repro.spe.events.EventBatch` of payload, a watermark, or a
latency marker.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from repro.spe.events import EventBatch


class _Entry:
    __slots__ = ("record", "enqueued_at")

    def __init__(self, record: object, enqueued_at: float) -> None:
        self.record = record
        self.enqueued_at = enqueued_at


class Channel:
    """Bounded-accounting FIFO queue between operators.

    A channel whose endpoints live on different nodes carries a transfer
    ``latency_ms``: pushed records stay in a pending buffer until the
    engine calls :meth:`release` once the latency has elapsed (the RPC /
    network hop of a distributed deployment, Sec. 4).
    """

    def __init__(
        self, name: str = "", latency_ms: float = 0.0, owner: object = None
    ) -> None:
        if latency_ms < 0:
            raise ValueError(f"negative channel latency: {latency_ms}")
        self.name = name
        self.latency_ms = latency_ms
        #: consuming operator (if any); its memoized queue aggregates are
        #: invalidated whenever this channel's payload accounting changes.
        self._owner = owner
        #: position of this channel in the consumer's ``inputs`` list
        #: (set by the owning operator; saves a list.index per dispatch).
        self._consumer_index = 0  # klink: transient[build-time wiring, fixed for the life of the topology]
        self._entries: Deque[_Entry] = deque()
        self._pending: Deque[_Entry] = deque()  # in-flight cross-node records
        self._queued_events: float = 0.0
        self._queued_bytes: float = 0.0
        # Cumulative flow counters (never reset) — the invariant monitor
        # asserts pushed + returned - popped == queued after every cycle.
        self.events_pushed: float = 0.0
        self.events_returned: float = 0.0
        self.events_popped: float = 0.0

    # -- producer side -----------------------------------------------------

    def push(self, record: object, now: float) -> None:
        """Enqueue ``record`` at engine time ``now``."""
        if self.latency_ms > 0.0:
            self._pending.append(_Entry(record, now + self.latency_ms))
            return
        if isinstance(record, EventBatch):
            self._entries.append(_Entry(record, now))
            self._queued_events += record.count
            self._queued_bytes += record.bytes
            self.events_pushed += record.count
            if self._owner is not None:
                self._owner._queues_dirty = True  # klink: transient[back-pointer; only invalidates the owner's queue memo]
        else:
            self._entries.append(_Entry(record, now))

    def push_row(
        self,
        count: float,
        t_start: float,
        t_end: float,
        delay: float,
        bytes_per_event: int,
        now: float,
    ) -> None:
        """Enqueue one payload row as an :class:`EventBatch`."""
        # Kept only because perfbench/layers.py wraps it by name.
        self.push(
            EventBatch(
                count=count,
                t_start=t_start,
                t_end=t_end,
                delay=delay,
                bytes_per_event=bytes_per_event,
            ),
            now,
        )

    def release(self, now: float) -> int:
        """Deliver in-flight records whose transfer completed; returns count."""
        released = 0
        while self._pending and self._pending[0].enqueued_at <= now:
            entry = self._pending.popleft()
            self._entries.append(entry)
            if isinstance(entry.record, EventBatch):
                self._queued_events += entry.record.count
                self._queued_bytes += entry.record.bytes
                self.events_pushed += entry.record.count
                if self._owner is not None:
                    self._owner._queues_dirty = True
            released += 1
        return released

    def push_front(self, record: object, enqueued_at: float) -> None:
        """Return a partially processed record to the head of the queue."""
        self._entries.appendleft(_Entry(record, enqueued_at))
        if isinstance(record, EventBatch):
            self._queued_events += record.count
            self._queued_bytes += record.bytes
            self.events_returned += record.count
            if self._owner is not None:
                self._owner._queues_dirty = True

    # -- consumer side -----------------------------------------------------

    def pop(self) -> Optional[_Entry]:
        """Dequeue the head entry, or ``None`` when empty."""
        if not self._entries:
            return None
        entry = self._entries.popleft()
        record = entry.record
        if isinstance(record, EventBatch):
            self._pop_batch_accounting(record)
        return entry

    def _pop_batch_accounting(self, record: EventBatch) -> None:
        """Payload accounting for a dequeued :class:`EventBatch`.

        The operator drain loop pops the head entry itself (it is already
        in hand) and calls this only when the record carries payload.
        """
        self._queued_events -= record.count
        self._queued_bytes -= record.bytes
        self.events_popped += record.count
        # Guard against float drift accumulating into negatives.
        if self._queued_events < 1e-9:
            self._queued_events = 0.0
        if self._queued_bytes < 1e-6:
            self._queued_bytes = 0.0
        if self._owner is not None:
            self._owner._queues_dirty = True

    def peek(self) -> Optional[_Entry]:
        """Return (without removing) the head entry, or ``None``."""
        return self._entries[0] if self._entries else None

    # -- introspection -----------------------------------------------------

    def transfer_interval(self, enqueued_at: float) -> Optional[tuple]:
        """``(push_time, arrival)`` of a record's cross-node transfer.

        For a latency channel, a record enqueued (arrived) at
        ``enqueued_at`` was pushed ``latency_ms`` earlier — the interval is
        the *emit* leg of the lineage waterfall. Local channels transfer
        instantaneously and return ``None``. Pure arithmetic over the
        channel's fixed latency; shares its boundary floats with the
        adjacent queue span so the lineage chain stays exactly contiguous.
        """
        if self.latency_ms <= 0.0:
            return None
        return (enqueued_at - self.latency_ms, enqueued_at)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[_Entry]:
        return iter(self._entries)

    @property
    def queued_events(self) -> float:
        """Number of payload events currently queued."""
        return self._queued_events

    @property
    def queued_bytes(self) -> float:
        """Memory footprint of queued payload events."""
        return self._queued_bytes

    @property
    def head_arrival(self) -> Optional[float]:
        """Engine time at which the oldest queued record arrived."""
        return self._entries[0].enqueued_at if self._entries else None

    def clear(self) -> None:
        """Drop all queued records (used by tests and teardown)."""
        # Dropped records count as consumed so the cumulative flow
        # counters stay consistent with the (now empty) queue.
        for entry in self._entries:
            record = entry.record
            if isinstance(record, EventBatch):
                self.events_popped += record.count
        self._entries.clear()
        self._queued_events = 0.0
        self._queued_bytes = 0.0
        if self._owner is not None:
            self._owner._queues_dirty = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Channel({self.name!r}, records={len(self._entries)}, "
            f"events={self._queued_events:.0f})"
        )
