"""Tests for the declarative SLO/alert rules (repro.obs.alerts): the
rule grammar, the evaluation engine, and in-run alerting end to end."""

import pytest

from repro.core.klink import KlinkScheduler
from repro.faults import FaultPlan
from repro.faults.plan import OperatorSlowdown
from repro.obs import (
    AlertEngine,
    AlertRuleError,
    DEFAULT_RULE_TEXTS,
    MetricsRegistry,
    TelemetryConfig,
    TelemetrySampler,
    dumps_line,
    parse_rule,
    parse_rules,
)
from repro.obs.schema import validate_alert
from repro.spe.engine import Engine
from tests.helpers import make_simple_query


class TestRuleGrammar:
    def test_threshold_with_sustain(self):
        rule = parse_rule("latency_recent_p99_ms > 1000 for 5s")
        assert rule.kind == "threshold"
        assert rule.metric == "latency_recent_p99_ms"
        assert rule.op == ">" and rule.threshold == 1000.0
        assert rule.for_ms == 5000.0

    def test_threshold_without_sustain_fires_immediately(self):
        rule = parse_rule("queue_depth >= 10")
        assert rule.for_ms == 0.0

    def test_labels_restrict_the_match(self):
        rule = parse_rule("queue_depth{query=ysb-0} > 5 for 200ms")
        assert rule.labels == (("query", "ysb-0"),)
        assert rule.for_ms == 200.0

    def test_growing_rule(self):
        rule = parse_rule("queue_depth growing for 10 samples")
        assert rule.kind == "growing" and rule.samples == 10

    def test_mean_rule(self):
        rule = parse_rule("mean(memory_mode_active) > 0.2 over 10s")
        assert rule.kind == "mean"
        assert rule.threshold == 0.2 and rule.for_ms == 10_000.0

    def test_minutes_unit(self):
        assert parse_rule("m > 1 for 2m").for_ms == 120_000.0

    def test_explicit_name_prefix(self):
        rule = parse_rule("slo: latency_recent_p99_ms > 1000")
        assert rule.name == "slo"

    def test_default_name_is_canonical_text(self):
        rule = parse_rule("queue_depth > 5 for 1s")
        assert rule.name == "queue_depth > 5 for 1000ms"

    @pytest.mark.parametrize(
        "text",
        [
            "nonsense",
            "queue_depth !! 5",
            "queue_depth > 5 for 5 parsecs",
            "queue_depth growing for 1 sample",  # needs >= 2
            "mean(x) > 1",  # mean needs an 'over' window
            "queue_depth{query} > 1",  # label without value
        ],
    )
    def test_rejects_bad_rules(self, text):
        with pytest.raises(AlertRuleError):
            parse_rule(text)

    def test_duplicate_names_rejected(self):
        with pytest.raises(AlertRuleError, match="duplicate"):
            parse_rules(["a: x > 1", "a: y > 2"])

    def test_default_rule_texts_parse(self):
        rules = parse_rules(DEFAULT_RULE_TEXTS)
        assert [r.name for r in rules] == [
            "slo-latency", "queue-growth", "mm-occupancy",
        ]


def feed(engine_rules, samples, *, period=100.0):
    """Drive an AlertEngine with a scripted single-gauge series."""
    registry = MetricsRegistry(period_ms=period)
    engine = AlertEngine(parse_rules(engine_rules))
    now = 0.0
    for value in samples:
        now += period
        registry.gauge("m").set(value)
        registry.sample(now)
        engine.evaluate(now, registry)
    return engine, now


class TestAlertEngine:
    def test_threshold_fires_only_after_sustain(self):
        engine, _ = feed(["r: m > 10 for 250ms"], [20.0, 20.0])
        assert len(engine) == 0  # breached for 200ms only
        engine, _ = feed(["r: m > 10 for 250ms"], [20.0, 20.0, 20.0, 20.0])
        assert len(engine) == 1
        event = engine.events[0]
        assert event.start == 100.0  # span opens at first breach sample
        assert event.end is None  # still active

    def test_threshold_resolves_and_refires(self):
        engine, _ = feed(["r: m > 10"], [20.0, 5.0, 30.0, 5.0])
        assert len(engine) == 2
        first, second = engine.events
        assert (first.start, first.end) == (100.0, 200.0)
        assert (second.start, second.end) == (300.0, 400.0)
        assert second.value == 30.0

    def test_dip_resets_the_sustain_clock(self):
        engine, _ = feed(
            ["r: m > 10 for 250ms"], [20.0, 20.0, 5.0, 20.0, 20.0]
        )
        assert len(engine) == 0

    def test_growing_needs_strictly_increasing_run(self):
        engine, _ = feed(["r: m growing for 3 samples"], [1.0, 2.0, 3.0, 4.0])
        assert len(engine) == 1
        engine, _ = feed(["r: m growing for 3 samples"], [1.0, 2.0, 2.0, 3.0])
        assert len(engine) == 0

    def test_mean_rule_uses_trailing_window(self):
        # 200ms window at 100ms cadence = the trailing three samples.
        engine, _ = feed(["r: mean(m) > 10 over 200ms"], [0.0, 0.0, 30.0, 30.0])
        assert len(engine) == 1
        engine, _ = feed(["r: mean(m) > 10 over 200ms"], [0.0, 12.0, 5.0])
        assert len(engine) == 0

    def test_lower_bound_comparator(self):
        engine, _ = feed(["r: m < 5"], [10.0, 1.0, 10.0])
        assert len(engine) == 1
        assert engine.events[0].value == 1.0

    def test_publish_keeps_open_events_and_rows_end_them_there(self):
        engine, now = feed(["r: m > 10"], [20.0, 20.0])
        assert engine.events[0].end is None
        assert engine.to_rows()[0]["end"] is None
        engine.publish(now)
        # Still active (a later run continues it); its row ends at the
        # publish.
        assert engine.events[0].end is None
        assert engine.to_rows()[0]["end"] == now

    def test_counts_and_rows_sorted(self):
        engine, now = feed(
            ["b: m > 10", "a: m > 15"], [20.0, 5.0, 20.0]
        )
        engine.publish(now)
        assert list(engine.counts()) == ["a", "b"]
        rows = engine.to_rows()
        assert rows == sorted(
            rows, key=lambda r: (r["start"], r["rule"], r["series"])
        )
        for row in rows:
            validate_alert(row)
            assert list(row) == [
                "rule", "series", "kind", "start", "end", "value",
            ]

    def test_unlabelled_rule_matches_every_series(self):
        registry = MetricsRegistry()
        engine = AlertEngine(parse_rules(["r: q > 10"]))
        registry.gauge("q", {"query": "a"}).set(20.0)
        registry.gauge("q", {"query": "b"}).set(20.0)
        registry.sample(100.0)
        engine.evaluate(100.0, registry)
        assert {e.series for e in engine.events} == {
            "q{query=a}", "q{query=b}",
        }


def run_with_fault(rules, *, seed=1, duration=25_000.0):
    """A 10x operator slowdown mid-run: queues pile up while the fault
    holds, and the deferred windows deliver SLO-busting latencies once
    it lifts (the scenario examples/telemetry_alerts.py demonstrates)."""
    from repro.spe.memory import GIB, MemoryConfig
    from repro.workloads import WorkloadParams, build_queries

    params = WorkloadParams(delay="uniform", rate_scale=1.0, seed=seed)
    queries = build_queries("ysb", 4, params)
    sampler = TelemetrySampler(TelemetryConfig(), rules=parse_rules(rules))
    faults = FaultPlan(
        [OperatorSlowdown(start_ms=3_000.0, end_ms=12_000.0, factor=10.0)]
    )
    engine = Engine(queries, KlinkScheduler(), cores=8, cycle_ms=120.0,
                    memory=MemoryConfig(capacity_bytes=1.0 * GIB),
                    seed=seed, faults=faults, telemetry=sampler)
    metrics = engine.run(duration)
    return sampler, metrics


class TestInRunAlerting:
    RULES = (
        "slo-latency: latency_recent_p99_ms > 1000 for 1s",
        "queue-growth: queue_depth growing for 5 samples",
    )

    def test_fault_episode_fires_alerts_and_misses(self):
        sampler, metrics = run_with_fault(self.RULES)
        assert metrics.alerts_fired > 0
        assert metrics.deadline_misses > 0
        assert metrics.alert_counts == sampler.alerts.counts()
        assert sum(metrics.alert_counts.values()) == metrics.alerts_fired
        # Every fired event is a closed, well-formed span.
        for row in sampler.alert_rows():
            validate_alert(row)
            assert row["end"] is not None and row["end"] >= row["start"]

    def test_alert_rows_deterministic_across_reruns(self):
        def rows(seed):
            sampler, _ = run_with_fault(self.RULES, seed=seed)
            return "\n".join(dumps_line(r) for r in sampler.alert_rows())

        first = rows(3)
        assert first and first == rows(3)

    def test_healthy_run_fires_nothing(self):
        queries = [make_simple_query("q0", rate_eps=500.0)]
        sampler = TelemetrySampler(
            TelemetryConfig(), rules=parse_rules(self.RULES)
        )
        engine = Engine(queries, KlinkScheduler(), cores=4, cycle_ms=100.0,
                        seed=1, telemetry=sampler)
        metrics = engine.run(6_000.0)
        assert metrics.alerts_fired == 0
        assert sampler.alert_rows() == []
