"""Batched-vs-per-event equivalence gates (ISSUE 8 tentpole).

The batched columnar operator core is a pure wall-clock optimization:
for ANY batch size the engine must produce byte-identical
``RunMetrics.summary()`` output and byte-identical JSONL traces to the
``batch_size=1`` per-event reference path. These tests are the equality
gate that pins that contract:

* a tier-1 smoke slice (ysb/lrb x Klink/Default, batch sizes 7 and 64);
* the full matrix — batch sizes {7, 64, 1024} against 1 across all
  schedulers on both workloads — marked ``chaos`` like the other
  expensive matrices (run it with ``pytest -m chaos``);
* trace byte-equality for a traced, audited, telemetry-sampling run;
* checkpoint/restore with RecordBatches in flight: a run that fails,
  restores from a checkpoint whose channels held coalesced batches, and
  resumes must still be byte-identical to the per-event run of the same
  scenario (tier-1 smoke + chaos matrix);
* a 2-node split ``DistributedEngine``, whose cross-node channels never
  coalesce while the node-local ones do.
"""

import functools
import json

import pytest

from repro.bench.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    make_scheduler,
    run_experiment,
)
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import FaultPlan, InvariantMonitor, NodeFailure
from repro.resilience import CheckpointCoordinator, RecoveryConfig, RecoveryManager
from repro.spe.engine import Engine
from repro.workloads import WorkloadParams, build_queries

DURATION_MS = 6_000.0
N_QUERIES = 3
SEED = 7

BATCH_SIZES = (7, 64, 1024)


@functools.lru_cache(maxsize=None)
def summary_fingerprint(workload: str, scheduler: str, batch_size: int) -> str:
    cfg = ExperimentConfig(
        workload=workload,
        scheduler=scheduler,
        duration_ms=DURATION_MS,
        n_queries=N_QUERIES,
        seed=SEED,
        batch_size=batch_size,
    )
    result = run_experiment(cfg)
    return json.dumps(result.summary, sort_keys=True)


class TestSummaryEquivalence:
    @pytest.mark.parametrize("batch_size", [7, 64])
    @pytest.mark.parametrize("scheduler", ["Klink", "Default"])
    @pytest.mark.parametrize("workload", ["ysb", "lrb"])
    def test_smoke_slice(self, workload, scheduler, batch_size):
        reference = summary_fingerprint(workload, scheduler, 1)
        assert summary_fingerprint(workload, scheduler, batch_size) == reference

    @pytest.mark.chaos
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    @pytest.mark.parametrize("workload", ["ysb", "lrb"])
    def test_full_matrix(self, workload, scheduler, batch_size):
        reference = summary_fingerprint(workload, scheduler, 1)
        assert summary_fingerprint(workload, scheduler, batch_size) == reference


class TestTraceEquivalence:
    def test_jsonl_trace_bytes_identical(self, tmp_path):
        # A fully-observed run (trace + audit + telemetry): every record
        # the exporter writes — cycle decisions, series samples, alerts,
        # summary — must be byte-identical across batch sizes.
        def trace_bytes(batch_size: int) -> bytes:
            path = tmp_path / f"trace_b{batch_size}.jsonl"
            cfg = ExperimentConfig(
                workload="ysb",
                scheduler="Klink",
                duration_ms=DURATION_MS,
                n_queries=N_QUERIES,
                seed=SEED,
                audit=True,
                telemetry=True,
                trace_path=str(path),
                batch_size=batch_size,
            )
            run_experiment(cfg)
            return path.read_bytes()

        reference = trace_bytes(1)
        assert len(reference) > 0
        assert trace_bytes(64) == reference


class TestDistributedBatchEquivalence:
    @pytest.mark.parametrize("scheduler", ["Klink", "Default"])
    def test_split_cluster_batch_8_equals_per_event(self, scheduler):
        def run(batch_size):
            queries = build_queries("ysb", 8, WorkloadParams(seed=5))
            engine = DistributedEngine.with_policy(
                queries,
                PhysicalPlan.split(queries, 2, segments=2),
                lambda: make_scheduler(scheduler),
                cores_per_node=2,
                rpc_latency_ms=100.0,
                seed=5,
                batch_size=batch_size,
            )
            metrics = engine.run(30_000.0)
            return (
                json.dumps(metrics.summary(), sort_keys=True),
                metrics.swm_latencies,
                metrics.marker_latencies,
            )

        reference = run(1)
        assert reference[1], "the run produced no latency samples"
        assert run(8) == reference


def _failover_fingerprint(
    workload: str, scheduler: str, batch_size: int, fail_at: float
) -> str:
    """Summary of a run that checkpoints, fails mid-flight, and recovers.

    The checkpoint period and failure time are chosen so the restored
    snapshot's channels hold coalesced in-flight RecordBatches (any
    cycle mid-run has queued payload on this workload), exercising the
    v2 "rb" channel codec end to end.
    """
    queries = build_queries(workload, N_QUERIES, WorkloadParams(seed=SEED))
    monitor = InvariantMonitor()
    coordinator = CheckpointCoordinator(2_000.0)
    recovery = RecoveryManager(RecoveryConfig("restart"), coordinator)
    engine = Engine(
        queries,
        make_scheduler(scheduler),
        cores=8,
        cycle_ms=100.0,
        seed=SEED,
        faults=FaultPlan([NodeFailure(fail_at, fail_at + 3_000.0, node=0)]),
        invariants=monitor,
        checkpoints=coordinator,
        recovery=recovery,
        batch_size=batch_size,
    )
    metrics = engine.run(20_000.0)
    assert monitor.ok, str(monitor)
    assert metrics.checkpoints_taken >= 1
    assert metrics.recoveries >= 1
    return json.dumps(metrics.summary(), sort_keys=True)


class TestCheckpointedBatchEquivalence:
    def test_restore_of_in_flight_batches_resumes_byte_identically(self):
        reference = _failover_fingerprint("ysb", "Klink", 1, 8_000.0)
        assert _failover_fingerprint("ysb", "Klink", 64, 8_000.0) == reference

    @pytest.mark.chaos
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("fail_at", [5_000.0, 12_000.0])
    @pytest.mark.parametrize("scheduler", ["Klink", "Default"])
    @pytest.mark.parametrize("workload", ["ysb", "lrb"])
    def test_failover_matrix(self, workload, scheduler, fail_at, batch_size):
        reference = _failover_fingerprint(workload, scheduler, 1, fail_at)
        assert (
            _failover_fingerprint(workload, scheduler, batch_size, fail_at)
            == reference
        )
