"""The benchmark's three workloads, reached only through public entry points.

Each workload is a batch job: open-loop virtual-clock sources run for a
fixed simulated span, so one run's cost is the work completed at a stated
input size. The workload seed is the only input that varies between runs;
every random stream of the simulation (query deployment times, source
delays) is derived from it by ``WorkloadParams(seed=...)``.

Why each workload was chosen is written down in ``NOTES.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.core.baselines import DefaultScheduler
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import InvariantMonitor
from repro.spe.memory import GIB, MemoryConfig
from repro.spe.metrics import RunMetrics
import repro.workloads

#: simulated span of one run (the paper's experiments, scaled: DESIGN.md)
SPAN_MS = 120_000.0
#: simulated span in smoke mode; shorter spans record no SWM latencies
SMOKE_SPAN_MS = 20_000.0


@dataclass
class Outcome:
    """What one run of a workload left behind."""

    metrics: RunMetrics
    monitor: Optional[InvariantMonitor]
    n_queries: int
    #: bytes of the JSONL run trace (0 when the workload writes none)
    trace_bytes: int = 0
    #: records the lineage tracker sampled (0 when lineage is off)
    lineage_records: int = 0


RunFn = Callable[[int, float, bool, Optional[object], str], Outcome]


def _lrb_klink_n60(
    seed: int, span_ms: float, check: bool, phases: Optional[object], out_dir: str
) -> Outcome:
    config = ExperimentConfig(
        workload="lrb",
        scheduler="Klink",
        n_queries=60,
        duration_ms=span_ms,
        seed=seed,
        check_invariants=check,
    )
    result = run_experiment(config, phase_profiler=phases)
    return Outcome(result.metrics, result.monitor, config.n_queries)


#: fig6e's distributed shape: YSB split in two segments over two nodes
#: with Flink's 100 ms network-buffer hop between them
DIST_QUERIES = 80
DIST_NODES = 2
DIST_RPC_LATENCY_MS = 100.0
#: fig6e runs rate_scale 1.25; there a quarter of the seeds hit a
#: backpressure episode whose tail (p99 12-26 s) dwarfs the others'
#: (p99 1.4-3.0 s), so no seed-to-seed bound could hold (NOTES.md)
DIST_RATE_SCALE = 1.0


def _ysb_default_dist2(
    seed: int, span_ms: float, check: bool, phases: Optional[object], out_dir: str
) -> Outcome:
    # Called through the package attribute so a traced run can time it.
    queries = repro.workloads.build_queries(
        "ysb",
        DIST_QUERIES,
        repro.workloads.WorkloadParams(seed=seed, rate_scale=DIST_RATE_SCALE),
    )
    plan = PhysicalPlan.split(queries, DIST_NODES, segments=2)
    monitor = InvariantMonitor() if check else None
    engine = DistributedEngine.with_policy(
        queries,
        plan,
        DefaultScheduler,
        memory=MemoryConfig(capacity_bytes=1.0 * GIB),
        rpc_latency_ms=DIST_RPC_LATENCY_MS,
        seed=seed,
        invariants=monitor,
    )
    metrics = engine.run(span_ms)
    return Outcome(metrics, monitor, len(queries))


def _lrb_klink_observed(
    seed: int, span_ms: float, check: bool, phases: Optional[object], out_dir: str
) -> Outcome:
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"lrb-klink-observed-{seed}.jsonl")
    # A trace path turns on the audit log, the operator profiler and
    # telemetry as well (run_experiment); checkpoints run fault-free.
    config = ExperimentConfig(
        workload="lrb",
        scheduler="Klink",
        n_queries=20,
        duration_ms=span_ms,
        seed=seed,
        check_invariants=check,
        audit=True,
        telemetry=True,
        trace_path=trace_path,
        lineage_sample_rate=0.05,
        checkpoint_period_ms=5_000.0,
    )
    try:
        result = run_experiment(config, phase_profiler=phases)
        trace_bytes = os.path.getsize(trace_path)
    finally:
        if os.path.exists(trace_path):
            os.remove(trace_path)
    lineage = result.lineage
    return Outcome(
        result.metrics,
        result.monitor,
        config.n_queries,
        trace_bytes=trace_bytes,
        lineage_records=lineage.rows_sampled if lineage is not None else 0,
    )


WORKLOADS: Dict[str, RunFn] = {
    "lrb-klink-n60": _lrb_klink_n60,
    "ysb-default-dist2": _ysb_default_dist2,
    "lrb-klink-observed": _lrb_klink_observed,
}
