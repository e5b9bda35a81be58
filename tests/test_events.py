"""Unit tests for stream records (batches, watermarks, markers)."""

import pytest

from repro.spe.events import EventBatch, LatencyMarker, Watermark


class TestEventBatch:
    def test_bytes_scale_with_count(self):
        batch = EventBatch(count=10, t_start=0, t_end=100, bytes_per_event=50)
        assert batch.bytes == 500

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            EventBatch(count=-1, t_start=0, t_end=1)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            EventBatch(count=1, t_start=10, t_end=5)

    def test_zero_length_interval_is_allowed(self):
        batch = EventBatch(count=1, t_start=10, t_end=10)
        assert batch.t_start == batch.t_end

    def test_split_fraction_scales_count_only(self):
        batch = EventBatch(count=100, t_start=0, t_end=50, delay=7.0)
        head = batch.split_fraction(0.25)
        assert head.count == 25
        assert head.t_start == 0 and head.t_end == 50
        assert head.delay == 7.0

    def test_split_fraction_full_returns_equal_batch(self):
        batch = EventBatch(count=100, t_start=0, t_end=50)
        assert batch.split_fraction(1.0).count == 100

    def test_split_fraction_rejects_out_of_range(self):
        batch = EventBatch(count=10, t_start=0, t_end=1)
        with pytest.raises(ValueError):
            batch.split_fraction(0.0)
        with pytest.raises(ValueError):
            batch.split_fraction(1.5)

    def test_fractional_counts_supported_mid_pipeline(self):
        batch = EventBatch(count=0.5, t_start=0, t_end=1)
        assert batch.count == 0.5


class TestWatermark:
    def test_defaults(self):
        wm = Watermark(100.0)
        assert wm.source_id == 0
        assert wm.is_swm is False

    def test_is_frozen(self):
        wm = Watermark(100.0)
        with pytest.raises(Exception):
            wm.timestamp = 200.0

    def test_swm_flag_carried(self):
        assert Watermark(5.0, is_swm=True).is_swm


class TestLatencyMarker:
    def test_identity_is_creation_time(self):
        # No process-global id: markers built by separate runs compare
        # (and hash) equal exactly when their creation times do.
        assert LatencyMarker(created_at=5.0) == LatencyMarker(created_at=5.0)
        assert hash(LatencyMarker(created_at=5.0)) == hash(
            LatencyMarker(created_at=5.0)
        )
        assert LatencyMarker(created_at=5.0) != LatencyMarker(created_at=6.0)
        assert repr(LatencyMarker(created_at=5.0)) == (
            "LatencyMarker(created_at=5.0)"
        )

