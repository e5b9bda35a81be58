"""Chaos-recovery tests: node failures under every recovery strategy.

The failover contract proven here (ISSUE satellites 2+3):

* **no loss** — after recovery, ``events_lost_to_failures`` is zero and
  the :class:`~repro.faults.invariants.InvariantMonitor` stays green
  (conservation would flag both lost *and* duplicated events);
* **bounded recovery time** — ``restart`` recovers within the failure
  episode plus a detection cycle or two; ``standby`` within a couple of
  detection cycles;
* **honest accounting** — with recovery disabled (``none``), the loss is
  counted and tolerated; with recovery *enabled*, any residual loss is a
  flagged violation, never silently excused.

The full schedulers x workloads x failure-time matrix is marked
``chaos`` and excluded from tier-1 (run it with ``pytest -m chaos``); a
small smoke subset stays unmarked.
"""

import json

import pytest

from repro.bench.runner import (
    ExperimentConfig,
    SCHEDULER_NAMES,
    make_scheduler,
    run_experiment,
    trace_summary,
)
from repro.core.baselines import DefaultScheduler, FCFSScheduler
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import FaultPlan, InvariantMonitor, NodeFailure
from repro.resilience import CheckpointCoordinator, RecoveryConfig, RecoveryManager
from repro.spe.engine import Engine
from repro.workloads import WorkloadParams, build_queries
from tests.helpers import make_simple_query

CYCLE_MS = 100.0
EPISODE_MS = 3_000.0
CHECKPOINT_MS = 2_000.0


def run_with_failure(
    scheduler,
    workload,
    fail_at,
    strategy,
    *,
    duration_ms=30_000.0,
    n_queries=4,
    seed=0,
):
    """One engine run with a single node-failure episode and full
    checkpoint/recovery/invariant wiring."""
    queries = build_queries(workload, n_queries, WorkloadParams(seed=seed))
    monitor = InvariantMonitor()
    coordinator = CheckpointCoordinator(CHECKPOINT_MS)
    recovery = RecoveryManager(RecoveryConfig(strategy), coordinator)
    engine = Engine(
        queries,
        make_scheduler(scheduler),
        cores=8,
        cycle_ms=CYCLE_MS,
        seed=seed,
        faults=FaultPlan([NodeFailure(fail_at, fail_at + EPISODE_MS, node=0)]),
        invariants=monitor,
        checkpoints=coordinator,
        recovery=recovery,
    )
    metrics = engine.run(duration_ms)
    return engine, metrics, monitor


def assert_recovered(metrics, monitor, strategy):
    """The no-loss / no-duplication / bounded-recovery invariant gate."""
    assert monitor.ok, str(monitor)
    assert metrics.events_lost_to_failures == 0.0
    assert metrics.recoveries >= 1
    for recovery_time in metrics.recovery_time_ms:
        if strategy == "restart":
            # dark for the episode, then rolled back within a cycle or two
            assert recovery_time <= EPISODE_MS + 2 * CYCLE_MS
        else:
            # hot standby promotes at detection time
            assert recovery_time <= 2 * CYCLE_MS
    summary = trace_summary(metrics)
    assert summary["resilience"]["recoveries"] == metrics.recoveries
    assert summary["resilience"]["events_lost_to_failures"] == 0.0


@pytest.mark.chaos
@pytest.mark.parametrize("strategy", ["restart", "standby"])
@pytest.mark.parametrize("fail_at", [5_000.0, 12_000.0, 21_000.0])
@pytest.mark.parametrize("workload", ["ysb", "lrb"])
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_chaos_matrix(scheduler, workload, fail_at, strategy):
    _, metrics, monitor = run_with_failure(scheduler, workload, fail_at, strategy)
    assert_recovered(metrics, monitor, strategy)


@pytest.mark.parametrize("strategy", ["restart", "standby"])
@pytest.mark.parametrize("scheduler", ["Klink", "Default"])
def test_failover_smoke(scheduler, strategy):
    """Tier-1 slice of the chaos matrix: one ysb failure per strategy."""
    _, metrics, monitor = run_with_failure(
        scheduler, "ysb", 8_000.0, strategy, duration_ms=20_000.0
    )
    assert_recovered(metrics, monitor, strategy)
    assert metrics.checkpoints_taken >= 1
    assert len(metrics.replay_span_ms) == metrics.recoveries


def _backlogged_engine(monitor=None, recovery=None, checkpoints=None):
    """One core against a 20k-eps source: entry queues stay saturated, so
    a crash always has in-flight events to lose."""
    query = make_simple_query("q0", rate_eps=20_000.0, cost_ms=0.1)
    return query, Engine(
        [query],
        FCFSScheduler(),
        cores=1,
        cycle_ms=CYCLE_MS,
        seed=0,
        faults=FaultPlan([NodeFailure(5_000.0, 8_000.0, node=0)]),
        invariants=monitor,
        checkpoints=checkpoints,
        recovery=recovery,
    )


class TestNoneStrategy:
    def test_crash_loss_is_counted_and_tolerated(self):
        monitor = InvariantMonitor()
        recovery = RecoveryManager(RecoveryConfig("none"))
        _, engine = _backlogged_engine(monitor, recovery)
        metrics = engine.run(15_000.0)
        assert metrics.events_lost_to_failures > 0.0
        assert metrics.recoveries == 0
        # tolerated precisely because recovery was disabled
        assert monitor.ok, str(monitor)
        event = metrics.recovery_events[0]
        assert event["strategy"] == "none"
        assert event["recovered_at"] is None
        assert event["events_lost"] == metrics.events_lost_to_failures
        summary = trace_summary(metrics)
        assert summary["resilience"]["events_lost_to_failures"] > 0.0

    def test_restart_on_same_backlog_loses_nothing(self):
        """The exact configuration that loses events under ``none`` is
        lossless once checkpoint/restart recovery is on."""
        monitor = InvariantMonitor()
        coordinator = CheckpointCoordinator(CHECKPOINT_MS)
        recovery = RecoveryManager(RecoveryConfig("restart"), coordinator)
        _, engine = _backlogged_engine(monitor, recovery, coordinator)
        metrics = engine.run(15_000.0)
        assert metrics.events_lost_to_failures == 0.0
        assert metrics.recoveries == 1
        assert monitor.ok, str(monitor)


class TestInvariantCrashHooks:
    """Satellite 3: loss is only tolerated when recovery is disabled."""

    def _run_and_wipe(self):
        monitor = InvariantMonitor()
        query, engine = _backlogged_engine(monitor)
        engine.faults = None  # no failure injection; we crash by hand
        engine.run(3_000.0)
        channel = query.bindings[0].channel
        lost = channel.queued_events
        assert lost > 0  # the backlog guarantees in-flight work to lose
        channel.clear()
        channel._pending.clear()
        return monitor, engine, {query.query_id: lost}

    def test_wiped_queue_without_crash_report_breaks_conservation(self):
        monitor, engine, _ = self._run_and_wipe()
        monitor.on_run_end(engine)
        assert not monitor.ok
        assert any(
            v.invariant == "event-conservation" for v in monitor.violations
        )

    def test_loss_tolerated_only_when_recovery_disabled(self):
        monitor, engine, lost_entry = self._run_and_wipe()
        monitor.on_crash(engine, lost_entry, recovery_enabled=False)
        monitor.on_run_end(engine)
        assert monitor.ok, str(monitor)

    def test_loss_with_recovery_enabled_is_a_violation(self):
        monitor, engine, lost_entry = self._run_and_wipe()
        monitor.on_crash(engine, lost_entry, recovery_enabled=True)
        assert not monitor.ok
        assert any(
            v.invariant == "unrecovered-loss" for v in monitor.violations
        )

    def test_tiny_loss_below_tolerance_ignored(self):
        monitor = InvariantMonitor()
        _, engine = _backlogged_engine(monitor)
        engine.faults = None
        engine.run(1_000.0)
        monitor.on_crash(engine, {"q0": 1e-12}, recovery_enabled=True)
        assert monitor.ok


class TestDistributedFailover:
    def _cluster(self, strategy, monitor):
        queries = [
            make_simple_query(f"q{i}", rate_eps=2_000.0, delay_ms=20.0)
            for i in range(3)
        ]
        plan = PhysicalPlan.locality(queries, 3)
        coordinator = CheckpointCoordinator(CHECKPOINT_MS)
        recovery = RecoveryManager(RecoveryConfig(strategy), coordinator)
        engine = DistributedEngine.with_policy(
            queries,
            plan,
            DefaultScheduler,
            cores_per_node=4,
            cycle_ms=CYCLE_MS,
            seed=0,
            faults=FaultPlan([NodeFailure(6_000.0, 9_000.0, node=1)]),
            invariants=monitor,
            checkpoints=coordinator,
            recovery=recovery,
        )
        return queries, plan, engine

    def test_standby_promotion_remaps_failed_node(self):
        monitor = InvariantMonitor()
        queries, plan, engine = self._cluster("standby", monitor)
        orphans = [
            op
            for q in queries
            for op in q.operators
            if plan.node_of[id(op)] == 1
        ]
        assert orphans  # locality placement puts query q1 on node 1
        metrics = engine.run(15_000.0)
        assert_recovered(metrics, monitor, "standby")
        for op in orphans:  # every orphaned operator found a survivor
            assert plan.node_of[id(op)] != 1

    def test_restart_rolls_back_when_node_returns(self):
        monitor = InvariantMonitor()
        queries, plan, engine = self._cluster("restart", monitor)
        placement_before = dict(plan.node_of)
        metrics = engine.run(15_000.0)
        assert_recovered(metrics, monitor, "restart")
        # restart keeps the placement: the node comes back and resumes
        assert plan.node_of == placement_before
        assert metrics.recovery_time_ms[0] >= EPISODE_MS - CYCLE_MS


def test_checkpointing_does_not_perturb_results():
    """A checkpointed no-failure run is byte-identical to the baseline."""
    base_config = dict(
        workload="ysb",
        scheduler="Klink",
        n_queries=4,
        duration_ms=20_000.0,
        cores=8,
        cycle_ms=CYCLE_MS,
        seed=3,
    )
    base = run_experiment(ExperimentConfig(**base_config))
    checked = run_experiment(
        ExperimentConfig(**base_config, checkpoint_period_ms=3_000.0)
    )
    assert json.dumps(checked.summary, sort_keys=True) == json.dumps(
        base.summary, sort_keys=True
    )
    assert checked.metrics.swm_latencies == base.metrics.swm_latencies
    assert checked.metrics.checkpoints_taken > 0
    # no failures -> no resilience section in the trace summary either
    assert "resilience" not in trace_summary(base.metrics)


def _seed_with_node_failure(duration_ms, query_ids):
    """First fault seed whose random plan has a node failure that also
    ends early enough for restart recovery to complete in-run."""
    for seed in range(80):
        plan = FaultPlan.random(seed, duration_ms, query_ids=query_ids)
        if any(
            isinstance(f, NodeFailure) and f.end_ms <= duration_ms - 1_000.0
            for f in plan
        ):
            return seed
    raise AssertionError("no node-failure seed found in range")


@pytest.mark.parametrize("strategy", ["restart", "standby"])
def test_run_experiment_failover_e2e(strategy):
    """ISSUE acceptance: a full bench run with --recover completes a
    mid-run node failure with zero loss, invariant-gated, and reports
    recovery metrics in the trace summary."""
    duration = 30_000.0
    ids = [f"ysb-{i}" for i in range(4)]
    seed = _seed_with_node_failure(duration, ids)
    result = run_experiment(
        ExperimentConfig(
            workload="ysb",
            scheduler="Klink",
            n_queries=4,
            duration_ms=duration,
            cores=8,
            cycle_ms=CYCLE_MS,
            fault_seed=seed,
            check_invariants=True,
            checkpoint_period_ms=CHECKPOINT_MS,
            recover=strategy,
        )
    )
    metrics = result.metrics
    assert result.monitor is not None and result.monitor.ok, str(result.monitor)
    assert metrics.recoveries >= 1
    assert metrics.events_lost_to_failures == 0.0
    resilience = trace_summary(metrics)["resilience"]
    assert resilience["recoveries"] == metrics.recoveries
    assert resilience["mean_recovery_time_ms"] >= 0.0
    assert len(resilience["events"]) == len(metrics.recovery_events)
