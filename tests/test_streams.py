"""Unit tests for inter-operator channels."""

import pytest

from repro.spe.events import EventBatch, LatencyMarker, Watermark
from repro.spe.streams import Channel


def batch(count=10, t0=0.0, t1=100.0, bpe=100):
    return EventBatch(count=count, t_start=t0, t_end=t1, bytes_per_event=bpe)


class TestFifoSemantics:
    def test_push_pop_preserves_order(self):
        ch = Channel()
        records = [batch(), Watermark(50.0), batch(count=5)]
        for i, r in enumerate(records):
            ch.push(r, now=float(i))
        popped = [ch.pop().record for _ in range(3)]
        assert popped == records

    def test_pop_empty_returns_none(self):
        assert Channel().pop() is None

    def test_peek_does_not_remove(self):
        ch = Channel()
        ch.push(batch(), 0.0)
        assert ch.peek() is not None
        assert len(ch) == 1

    def test_push_front_restores_head(self):
        ch = Channel()
        ch.push(batch(count=1), 0.0)
        ch.push(batch(count=2), 1.0)
        head = ch.pop()
        ch.push_front(head.record, head.enqueued_at)
        assert ch.pop().record.count == 1


class TestAccounting:
    def test_queued_events_tracks_batches(self):
        ch = Channel()
        ch.push(batch(count=10), 0.0)
        ch.push(batch(count=5), 0.0)
        assert ch.queued_events == 15

    def test_queued_bytes_tracks_batches(self):
        ch = Channel()
        ch.push(batch(count=10, bpe=50), 0.0)
        assert ch.queued_bytes == 500

    def test_control_records_occupy_no_event_accounting(self):
        ch = Channel()
        ch.push(Watermark(0.0), 0.0)
        ch.push(LatencyMarker(created_at=0.0), 0.0)
        assert ch.queued_events == 0
        assert ch.queued_bytes == 0
        assert len(ch) == 2

    def test_push_row_enqueues_one_batch_like_push(self):
        rowed = Channel()
        rowed.push_row(10.0, 0.0, 100.0, 3.0, 50, now=1.0)
        pushed = Channel()
        pushed.push(
            EventBatch(count=10.0, t_start=0.0, t_end=100.0, delay=3.0,
                       bytes_per_event=50),
            now=1.0,
        )
        assert len(rowed) == 1
        entry = rowed.peek()
        assert type(entry.record) is EventBatch
        assert entry.enqueued_at == 1.0
        assert rowed.queued_events == pushed.queued_events == 10.0
        assert rowed.queued_bytes == pushed.queued_bytes == 500.0
        assert rowed.events_pushed == pushed.events_pushed == 10.0

    def test_pop_releases_accounting(self):
        ch = Channel()
        ch.push(batch(count=10), 0.0)
        ch.pop()
        assert ch.queued_events == 0
        assert ch.queued_bytes == 0

    def test_clear_resets_everything(self):
        ch = Channel()
        ch.push(batch(), 0.0)
        ch.clear()
        assert len(ch) == 0
        assert ch.queued_events == 0


class TestIntrospection:
    def test_head_arrival(self):
        ch = Channel()
        assert ch.head_arrival is None
        ch.push(batch(), 17.0)
        assert ch.head_arrival == 17.0

    def test_bool_reflects_emptiness(self):
        ch = Channel()
        assert not ch
        ch.push(batch(), 0.0)
        assert ch


class TestTransferLatency:
    def test_latent_channel_holds_until_release(self):
        ch = Channel(latency_ms=100.0)
        ch.push(batch(count=4), now=0.0)
        assert len(ch) == 0
        assert ch.queued_events == 0
        assert ch.release(now=50.0) == 0
        assert ch.release(now=100.0) == 1
        assert ch.queued_events == 4

    def test_release_preserves_order(self):
        ch = Channel(latency_ms=10.0)
        ch.push(batch(count=1), 0.0)
        ch.push(Watermark(5.0), 1.0)
        ch.release(now=20.0)
        assert isinstance(ch.pop().record, EventBatch)
        assert isinstance(ch.pop().record, Watermark)

    def test_zero_latency_is_immediate(self):
        ch = Channel()
        ch.push(batch(), 0.0)
        assert len(ch) == 1

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            Channel(latency_ms=-1.0)
