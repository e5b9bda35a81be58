"""A source's periods stay live after binding: changing ``gen_batch_ms``,
``watermark_period_ms`` or ``marker_period_ms`` on a bound spec changes
how many records of that kind the source generates."""

import pytest

from repro.core.baselines import DefaultScheduler
from repro.spe.engine import Engine
from repro.spe.events import EventBatch, LatencyMarker, Watermark
from tests.helpers import make_simple_query

SPAN_MS = 12_000.0


def _ingested(field, period_ms, kind, retarget=False):
    """Records of ``kind`` pushed into the source channel over the span,
    with ``field`` set to ``period_ms`` after the query was bound."""
    query = make_simple_query("q0", rate_eps=2_000.0)
    (binding,) = query.bindings
    setattr(binding.spec, field, period_ms)
    if retarget:
        # re-anchoring the next tick, as the marker ablation does, must
        # not pin the old period either
        binding.next_marker_time = period_ms
    engine = Engine([query], DefaultScheduler(), cores=2, seed=0)
    counts = {"n": 0}
    push = binding.channel.push

    def counting_push(record, now):
        if type(record) is kind:
            counts["n"] += 1
        return push(record, now)

    binding.channel.push = counting_push
    engine.run(SPAN_MS)
    return counts["n"]


@pytest.mark.parametrize(
    "field, fast, slow, kind",
    [
        ("marker_period_ms", 50.0, 200.0, LatencyMarker),
        ("watermark_period_ms", 100.0, 400.0, Watermark),
        ("gen_batch_ms", 25.0, 100.0, EventBatch),
    ],
)
def test_record_count_follows_the_period(field, fast, slow, kind):
    n_fast = _ingested(field, fast, kind)
    n_slow = _ingested(field, slow, kind)
    # One record per period over the span. The first tick was placed at
    # binding time (one default period in), so up to that period's worth
    # of the faster ticks is missing.
    assert abs(n_fast - SPAN_MS / fast) <= 5
    assert abs(n_slow - SPAN_MS / slow) <= 5


def test_marker_period_survives_a_retargeted_next_tick():
    assert abs(_ingested("marker_period_ms", 50.0, LatencyMarker, True) - 240) <= 3
    assert abs(_ingested("marker_period_ms", 200.0, LatencyMarker, True) - 60) <= 3


def test_period_change_mid_run_applies_from_the_next_tick():
    query = make_simple_query("q0")
    (binding,) = query.bindings
    engine = Engine([query], DefaultScheduler(), cores=2, seed=0)
    engine.run(6_000.0)
    tick = binding.next_marker_time
    binding.spec.marker_period_ms = 50.0
    engine.run(6_000.0)
    # the tick already due keeps its time; the ones after it are 50 ms apart
    cursor = binding._marker_cursor
    assert cursor.period == 50.0
    assert (binding.next_marker_time - tick) % 50.0 == 0.0
