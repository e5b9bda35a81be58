"""The engine's observer protocol (repro.obs.observer).

Every observer hangs off one dispatch list, ``Engine.observers``, and
publishes at the end of a run without ending its state, so a run split
in two publishes what the whole run does.
"""

from __future__ import annotations

from repro.bench.runner import ExperimentConfig, make_scheduler, run_experiment
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import InvariantMonitor
from repro.obs import (
    AuditLog,
    LineageTracker,
    Observer,
    OperatorProfiler,
    TelemetrySampler,
    parse_rules,
)
from repro.obs.alerts import DEFAULT_RULE_TEXTS
from repro.resilience import CheckpointCoordinator
from repro.spe.engine import Engine
from repro.spe.memory import GIB, MemoryConfig
from repro.workloads import WorkloadParams, build_queries

SEED = 1


def _observed_ysb_engine(n_queries: int = 6):
    queries = build_queries("ysb", n_queries, WorkloadParams(seed=SEED))
    sampler = TelemetrySampler(rules=parse_rules(DEFAULT_RULE_TEXTS))
    lineage = LineageTracker(0.05, seed=SEED)
    engine = Engine(
        queries,
        make_scheduler("Klink"),
        memory=MemoryConfig(capacity_bytes=1.0 * GIB),
        seed=SEED,
        telemetry=sampler,
        invariants=InvariantMonitor(),
        profiler=OperatorProfiler(),
        lineage=lineage,
    )
    return engine, sampler, lineage


class TestDispatchList:
    def test_observers_in_call_order(self):
        audit, profiler, monitor = AuditLog(), OperatorProfiler(), InvariantMonitor()
        sampler, lineage = TelemetrySampler(), LineageTracker(0.05)
        checkpoints = CheckpointCoordinator(5_000.0)
        queries = build_queries("ysb", 2, WorkloadParams(seed=SEED))
        engine = Engine(
            queries, make_scheduler("Klink"), audit=audit, profiler=profiler,
            invariants=monitor, telemetry=sampler, checkpoints=checkpoints,
            lineage=lineage,
        )
        assert engine.observers == (
            monitor, profiler, sampler, audit, checkpoints, lineage,
        )
        assert all(isinstance(o, Observer) for o in engine.observers)
        assert Engine(queries, make_scheduler("Klink")).observers == ()

    def test_every_hook_reaches_a_slot_assigned_after_construction(self):
        calls = []

        class Recorder(Observer):
            def on_run_start(self, engine):
                calls.append("start")

            def on_cycle(self, engine, record):
                calls.append(("cycle", record.cycle, len(record.nodes)))

            def on_run_end(self, engine):
                calls.append("end")

        queries = build_queries("ysb", 2, WorkloadParams(seed=SEED))
        engine = Engine(queries, make_scheduler("Default"), cycle_ms=100.0)
        engine.profiler = Recorder()
        engine.run(300.0)
        assert calls == [
            "start", ("cycle", 0, 1), ("cycle", 1, 1), ("cycle", 2, 1), "end",
        ]


class TestSplitRuns:
    """run(a); run(b) publishes what run(a + b) does."""

    def _outputs(self, spans):
        engine, sampler, lineage = _observed_ysb_engine()
        for span in spans:
            metrics = engine.run(span)
        return (
            metrics.summary(),
            sampler.alert_rows(),
            lineage.lineage_rows(),
            lineage.summary_row(),
        )

    def test_two_halves_equal_one_run(self):
        whole = self._outputs([24_000.0])
        halves = self._outputs([12_000.0, 12_000.0])
        assert halves[0] == whole[0]
        assert halves[1] == whole[1]
        assert halves[2] == whole[2]
        assert halves[3] == whole[3]
        # The run is long enough to exercise what the halves used to lose.
        summary, alerts, rows, lineage_summary = whole
        assert summary["deadline_misses"] > 0
        assert alerts
        assert lineage_summary["statuses"]["in-flight"] > 0


class TestForecastAudit:
    """A LineageTracker wires the SWM-forecast audit into every Klink."""

    def test_engine_keyword_equals_run_experiment(self):
        config = ExperimentConfig(
            workload="ysb", scheduler="Klink", n_queries=4,
            duration_ms=20_000.0, seed=SEED, lineage_sample_rate=0.05,
        )
        expected = run_experiment(config).lineage.swm_forecast_rows()
        queries = build_queries("ysb", 4, WorkloadParams(seed=SEED))
        lineage = LineageTracker(0.05, seed=SEED)
        engine = Engine(
            queries,
            make_scheduler("Klink"),
            memory=MemoryConfig(capacity_bytes=1.0 * GIB),
            seed=SEED,
            lineage=lineage,
        )
        engine.run(20_000.0)
        assert sum(row["evaluations"] for row in expected) > 0
        assert lineage.swm_forecast_rows() == expected

    @staticmethod
    def _distributed_rows(silenced_node=None):
        class Tracker(LineageTracker):
            def attach(self, engine):
                super().attach(engine)
                if silenced_node is not None:
                    engine.node_schedulers[silenced_node].forecast_audit = None

        queries = build_queries("ysb", 4, WorkloadParams(seed=SEED))
        plan = PhysicalPlan.split(queries, 2, segments=2)
        lineage = Tracker(0.05, seed=SEED)
        engine = DistributedEngine.with_klink(
            queries, plan, cores_per_node=2, rpc_latency_ms=100.0, seed=SEED,
            lineage=lineage,
        )
        engine.run(40_000.0)
        rows = {row["query_id"]: row for row in lineage.swm_forecast_rows()}
        return rows, {q.query_id: plan.source_node(q) for q in queries}

    def test_each_source_is_audited_by_the_node_hosting_it(self):
        rows, source_node = self._distributed_rows()
        # Split placement spreads the sources over both nodes, and every
        # source is audited.
        assert set(source_node.values()) == {0, 1}
        assert set(rows) == set(source_node)
        assert all(row["evaluations"] > 0 for row in rows.values())
        # Silencing one node's audit removes exactly the rows of the
        # sources it hosts and leaves the others' rows as they were: no
        # row mixes the evaluations of two nodes.
        for node in (0, 1):
            without, _ = self._distributed_rows(silenced_node=node)
            kept = {qid for qid, n in source_node.items() if n != node}
            assert set(without) == kept
            for qid in kept:
                assert without[qid] == rows[qid]
