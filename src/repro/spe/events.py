"""Stream records flowing between operators.

To keep a pure-Python simulation tractable at the paper's event rates
(10,000+ events per second per query), payload events are represented as
*batches*: one :class:`EventBatch` stands for ``count`` events generated over
the event-time interval ``[t_start, t_end]`` that experienced the same
network delay. All scheduling-relevant quantities — queue sizes, processing
cost, selectivity, memory footprint, window assignment — are functions of
counts and timestamp ranges, so batching preserves the behaviour the paper
measures while cutting interpreter overhead by orders of magnitude.

Watermarks and latency markers remain individual records because their
per-record semantics (progress signalling, latency probing) are the object
of study.
"""

from __future__ import annotations

import struct


def record_identity(query_id: str, source_id: int, t_end: float) -> bytes:
    """Stable byte identity of a generated batch's final event.

    Used by the lineage sampler to decide — deterministically across
    reruns, worker processes, and ``PYTHONHASHSEED`` values — whether a
    record is traced. The event-time boundary is encoded via its IEEE-754
    bit pattern (not ``repr``), so two floats compare equal here exactly
    when they are the same value bit-for-bit.
    """
    return (
        query_id.encode("utf-8")
        + b"|"
        + str(source_id).encode("ascii")
        + b"|"
        + struct.pack("<d", t_end)
    )


class EventBatch:
    """A group of payload events sharing generation interval and delay.

    A plain ``__slots__`` class (not a dataclass): record construction is
    the hottest allocation in the simulator, and slots cut both the
    per-instance memory and the attribute access cost.

    Attributes:
        count: Number of events represented (may be fractional mid-pipeline
            after selectivity scaling; sources always emit integral counts).
        t_start: Earliest event-time in the batch (ms).
        t_end: Latest event-time in the batch (ms), ``>= t_start``. Event
            times are treated as uniformly spread over ``[t_start, t_end]``
            when a batch must be split across window panes.
        delay: Network delay the events experienced between generation at
            the source and ingestion by the engine (ms). Klink's runtime
            data acquisition reads this to build its delay history.
        bytes_per_event: Serialized size used by the memory model.
    """

    __slots__ = ("count", "t_start", "t_end", "delay", "bytes_per_event")

    def __init__(
        self,
        count: float,
        t_start: float,
        t_end: float,
        delay: float = 0.0,
        bytes_per_event: int = 100,
    ) -> None:
        if count < 0:
            raise ValueError(f"negative batch count: {count}")
        if t_end < t_start:
            raise ValueError(f"batch interval inverted: [{t_start}, {t_end}]")
        self.count = count
        self.t_start = t_start
        self.t_end = t_end
        self.delay = delay
        self.bytes_per_event = bytes_per_event

    # dataclass-equivalent value semantics (eq without hash)
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return (
            self.count == other.count
            and self.t_start == other.t_start
            and self.t_end == other.t_end
            and self.delay == other.delay
            and self.bytes_per_event == other.bytes_per_event
        )

    def __repr__(self) -> str:
        return (
            f"EventBatch(count={self.count!r}, t_start={self.t_start!r}, "
            f"t_end={self.t_end!r}, delay={self.delay!r}, "
            f"bytes_per_event={self.bytes_per_event!r})"
        )

    @property
    def bytes(self) -> float:
        """Total memory footprint of the batch."""
        return self.count * self.bytes_per_event

    def split_fraction(self, fraction: float) -> "EventBatch":
        """Return a new batch holding ``fraction`` of this batch's events.

        Used when a scheduling cycle's budget runs out mid-batch; the
        remainder stays queued. The event-time range is kept identical on
        both halves (events are interleaved in time, not prefix-ordered).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        return EventBatch(
            count=self.count * fraction,
            t_start=self.t_start,
            t_end=self.t_end,
            delay=self.delay,
            bytes_per_event=self.bytes_per_event,
        )


class Watermark:
    """Progress event: no event with event-time ``<= timestamp`` follows.

    ``source_id`` identifies which input stream of a multi-input (join)
    operator carried the watermark; single-input pipelines leave it 0.
    ``is_swm`` is set by a window operator when this watermark unblocked at
    least one pane — it is then a *sweeping watermark* for downstream
    operators, and the sink measures output latency on it (Sec. 2.2).

    Value-semantic ``__slots__`` class (construction-hot: every operator
    forwards a fresh watermark per hop); treat instances as immutable.
    """

    __slots__ = ("timestamp", "source_id", "is_swm")

    def __init__(
        self, timestamp: float, source_id: int = 0, is_swm: bool = False
    ) -> None:
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "source_id", source_id)
        object.__setattr__(self, "is_swm", is_swm)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Watermark is immutable (tried to set {name!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Watermark):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.source_id == other.source_id
            and self.is_swm == other.is_swm
        )

    def __hash__(self) -> int:
        return hash((self.timestamp, self.source_id, self.is_swm))

    def __repr__(self) -> str:
        return (
            f"Watermark(timestamp={self.timestamp!r}, "
            f"source_id={self.source_id!r}, is_swm={self.is_swm!r})"
        )


class LatencyMarker:
    """Probe injected at the source to measure propagation delay.

    The paper injects one marker per source every 200 ms; the sink records
    ``clock.now - created_at`` on arrival. Treat instances as immutable.
    A marker is identified by its creation time alone, so two runs of one
    seed build equal markers (and equal checkpoint bytes) whatever ran
    earlier in the process.
    """

    __slots__ = ("created_at",)

    def __init__(self, created_at: float) -> None:
        object.__setattr__(self, "created_at", created_at)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"LatencyMarker is immutable (tried to set {name!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyMarker):
            return NotImplemented
        return self.created_at == other.created_at

    def __hash__(self) -> int:
        return hash(self.created_at)

    def __repr__(self) -> str:
        return f"LatencyMarker(created_at={self.created_at!r})"


Record = object  # EventBatch | Watermark | LatencyMarker
