"""Golden-output cells: the matrix, its capture, and the fixture refresh.

Every cell runs one seeded simulation and records what a refactor of the
engine must leave byte-identical:

* the run summary (``RunMetrics.summary()`` plus the cycle, backpressure
  and event counters behind it), stored verbatim;
* the sha256 of the final engine checkpoint (``serialize(capture(...))``
  after the run), which covers every queue, pane, RNG position and
  in-flight network record;
* the sha256 of the JSONL run trace and of the audit log, for the cells
  that write them.

``tests/test_golden.py`` compares a fresh capture of each cell with
``tests/fixtures/golden.json``. Refresh the fixture with::

    PYTHONPATH=src python -m tests.golden --refresh

It refuses to overwrite an existing fixture unless the checkpoint schema
version changed: a change that alters the outputs without changing the
snapshot layout is a behaviour change, not a refresh. A new cell is
recorded with::

    PYTHONPATH=src python -m tests.golden --add

which captures only the cells the fixture lacks and keeps every existing
record as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.bench.runner as runner
from repro.bench.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    make_scheduler,
    run_experiment,
)
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import (
    FaultPlan,
    InvariantMonitor,
    MemoryPressureSpike,
    NodeFailure,
    OperatorSlowdown,
    SourceStall,
    WatermarkDrop,
    WatermarkStraggler,
)
from repro.obs import AuditLog, OperatorProfiler, TelemetrySampler
from repro.obs.export import dumps_line
from repro.resilience.checkpoint import SCHEMA_VERSION, capture, serialize
from repro.spe.engine import Engine
from repro.spe.memory import GIB, MemoryConfig
from repro.spe.metrics import RunMetrics
from repro.workloads import WorkloadParams, build_queries
from tests.helpers import make_simple_query

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden.json"

SEED = 7
N_QUERIES = 4
DURATION_MS = 40_000.0

Record = Dict[str, Any]


@dataclass(frozen=True)
class Cell:
    """One golden run: ``run(tmp_dir)`` returns the cell's record."""

    name: str
    run: Callable[[Path], Record]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(engine: Engine, metrics: RunMetrics) -> Record:
    summary: Dict[str, Any] = dict(metrics.summary())
    summary["cycles"] = metrics.cycles
    summary["backpressure_cycles"] = metrics.backpressure_cycles
    summary["total_events_processed"] = metrics.total_events_processed
    summary["total_events_ingested"] = metrics.total_events_ingested
    summary["events_shed"] = metrics.events_shed
    summary["late_events_dropped"] = metrics.late_events_dropped
    summary["latency_samples"] = len(metrics.swm_latencies)
    summary["recoveries"] = metrics.recoveries
    summary["checkpoints_taken"] = metrics.checkpoints_taken
    return {
        "summary": summary,
        "checkpoint_sha256": _sha256(serialize(capture(engine)).encode()),
    }


@contextmanager
def _built_engines() -> Iterator[List[Engine]]:
    """Record every engine ``run_experiment`` builds, so a cell can
    capture the final state of the engine behind a config."""
    built: List[Engine] = []
    original = runner.Engine

    def build(*args: Any, **kwargs: Any) -> Engine:
        engine = original(*args, **kwargs)
        built.append(engine)
        return engine

    runner.Engine = build  # type: ignore[misc,assignment]
    try:
        yield built
    finally:
        runner.Engine = original  # type: ignore[misc]


def _experiment(
    config: ExperimentConfig, traced: bool = False
) -> Callable[[Path], Record]:
    def run(tmp: Path) -> Record:
        trace = tmp / "trace.jsonl"
        cfg = replace(config, trace_path=str(trace)) if traced else config
        with _built_engines() as built:
            result = run_experiment(cfg)
        (engine,) = built
        if result.monitor is not None:
            assert result.monitor.ok, str(result.monitor)
        record = _record(engine, result.metrics)
        if result.audit is not None:
            record["audit_sha256"] = _sha256(result.audit.to_jsonl_str().encode())
        if traced:
            record["trace_sha256"] = _sha256(trace.read_bytes())
        if cfg.recover is not None:
            assert result.metrics.recoveries >= 1
        return record

    return run


def _config(workload: str, scheduler: str, **overrides: Any) -> ExperimentConfig:
    base: Dict[str, Any] = dict(
        workload=workload,
        scheduler=scheduler,
        n_queries=N_QUERIES,
        duration_ms=DURATION_MS,
        cores=2,
        seed=SEED,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


#: the observed modes, each run on ysb/lrb x Klink/Default: (traced,
#: config overrides). A trace also turns on the audit log, the operator
#: profiler and telemetry.
_MODES: Dict[str, Tuple[bool, Dict[str, Any]]] = {
    "faults": (False, dict(fault_seed=3, check_invariants=True)),
    # fault seed 3 holds one NodeFailure, restarted from a 2 s checkpoint
    "failover": (
        True,
        dict(
            fault_seed=3,
            checkpoint_period_ms=2_000.0,
            recover="restart",
            check_invariants=True,
        ),
    ),
    "lineage": (False, dict(lineage_sample_rate=0.05)),
    "observed": (True, dict(audit=True, telemetry=True)),
}


#: the faulted, checkpointed LRB run CI also makes through the CLI
#: (repro.cli run --workload lrb --scheduler Klink --queries 4
#: --duration 20 --cores 8 --seed 5 --faults 3 --checkpoint-period 5000
#: --no-cache --trace T); CI checks T's sha256 against this cell
CLI_TRACE_CELL = "cli-trace-lrb-Klink"
_CLI_TRACE_CONFIG = ExperimentConfig(
    workload="lrb",
    scheduler="Klink",
    n_queries=4,
    duration_ms=20_000.0,
    cores=8,
    seed=5,
    fault_seed=3,
    checkpoint_period_ms=5_000.0,
)


def _backpressure(tmp: Path) -> Record:
    record = _experiment(
        _config(
            "ysb", "Default", duration_ms=30_000.0, cores=1,
            rate_scale=8.0, memory_gb=0.0001,
        )
    )(tmp)
    # Deferred payload re-enters the network each backpressured cycle;
    # the cell must actually exercise that path.
    assert record["summary"]["backpressure_cycles"] >= 2
    return record


def _lineage_traced(tmp: Path) -> Record:
    config = _config(
        "lrb", "Klink", lineage_sample_rate=0.05, checkpoint_period_ms=2_000.0
    )
    record = _experiment(config, traced=True)(tmp)
    # The only cell whose trace holds the lineage records; it must hold
    # every kind of them.
    kinds = {
        json.loads(line)["type"]
        for line in (tmp / "trace.jsonl").read_text().splitlines()
    }
    assert {"lineage", "swm_forecast", "lineage_summary"} <= kinds, kinds
    return record


def _bursty(tmp: Path) -> Record:
    queries = [
        make_simple_query("bursty-q0", rate_eps=5_000.0, burst_factor=3.0, seed=5)
    ]
    engine = Engine(queries, make_scheduler("Default"), cores=2, cycle_ms=100.0, seed=5)
    return _record(engine, engine.run(10_000.0))


def _checkpoint_mid_run(tmp: Path) -> Record:
    queries = build_queries("ysb", 3, WorkloadParams(seed=SEED))
    engine = Engine(queries, make_scheduler("Klink"), cores=8, cycle_ms=100.0, seed=SEED)
    # Long enough that every staggered source has deployed and draws delays.
    metrics = engine.run(25_000.0)
    # Delay draws are block-prefetched: at least one model must hold
    # drawn-but-unconsumed values, so the snapshot's logical RNG
    # position is the reconstructed one, not the live generator's.
    assert any(
        b.spec.delay_model._draw_pos < len(b.spec.delay_model._draw_buf)
        for q in queries
        for b in q.bindings
    )
    return _record(engine, metrics)


def _every_fault_kind(tmp: Path) -> Record:
    # Hand-written plan hitting every per-record generation hook: source
    # holds (stall), watermark drops and straggler delays, plus a node
    # failure under the lossless-pause semantics.
    plan = FaultPlan([
        SourceStall(6_000.0, 9_000.0),
        WatermarkDrop(10_000.0, 14_000.0),
        WatermarkStraggler(15_000.0, 19_000.0, extra_delay_ms=1_500.0),
        OperatorSlowdown(20_000.0, 23_000.0, factor=3.0),
        MemoryPressureSpike(24_000.0, 26_000.0, extra_bytes=64 * 1024 * 1024),
        NodeFailure(28_000.0, 30_000.0, node=0),
    ])
    monitor = InvariantMonitor()
    queries = build_queries("ysb", N_QUERIES, WorkloadParams(seed=SEED))
    engine = Engine(
        queries, make_scheduler("Klink"), cores=2, cycle_ms=120.0, seed=SEED,
        faults=plan, invariants=monitor,
    )
    metrics = engine.run(DURATION_MS)
    assert monitor.ok, str(monitor)
    assert metrics.watermarks_dropped_by_faults > 0
    return _record(engine, metrics)


def _fig6e_engine(policy: Optional[str] = None, **observers: Any) -> DistributedEngine:
    # fig6e's shape, scaled down: YSB pipelines split in two segments over
    # two nodes, 100 ms hops, one Klink instance per node (or one instance
    # of the named query-level policy per node).
    queries = build_queries("ysb", 8, WorkloadParams(seed=SEED, rate_scale=1.25))
    plan = PhysicalPlan.split(queries, 2, segments=2)
    kwargs: Dict[str, Any] = dict(
        cores_per_node=2,
        memory=MemoryConfig(capacity_bytes=1.0 * GIB),
        rpc_latency_ms=100.0, seed=SEED, **observers,
    )
    if policy is None:
        return DistributedEngine.with_klink(queries, plan, **kwargs)
    return DistributedEngine.with_policy(
        queries, plan, lambda: make_scheduler(policy), **kwargs
    )


def _fig6e_split(tmp: Path) -> Record:
    engine = _fig6e_engine()
    return _record(engine, engine.run(30_000.0))


def _fig6e_split_default(tmp: Path) -> Record:
    engine = _fig6e_engine("Default")
    return _record(engine, engine.run(30_000.0))


def _fig6e_observed(tmp: Path) -> Record:
    # The same run with the per-cycle observers attached to both nodes.
    audit = AuditLog()
    sampler = TelemetrySampler()
    monitor = InvariantMonitor()
    engine = _fig6e_engine(
        audit=audit, telemetry=sampler, profiler=OperatorProfiler(),
        invariants=monitor,
    )
    record = _record(engine, engine.run(30_000.0))
    assert monitor.ok, str(monitor)
    record["audit_sha256"] = _sha256(audit.to_jsonl_str().encode())
    series = "".join(dumps_line(row) + "\n" for row in sampler.series_rows())
    record["series_sha256"] = _sha256(series.encode())
    return record


def cells() -> List[Cell]:
    out = [
        Cell(f"plain-{wl}-{sched}", _experiment(_config(wl, sched)))
        for wl in ("ysb", "lrb", "nyt")
        for sched in SCHEDULER_NAMES
    ]
    out += [
        Cell(f"{mode}-{wl}-{sched}", _experiment(_config(wl, sched, **opts), traced))
        for mode, (traced, opts) in _MODES.items()
        for wl in ("ysb", "lrb")
        for sched in ("Klink", "Default")
    ]
    out += [
        Cell("backpressure-ysb-Default", _backpressure),
        Cell("bursty-simple-Default", _bursty),
        Cell("checkpoint-mid-run-ysb-Klink", _checkpoint_mid_run),
        Cell("every-fault-kind-ysb-Klink", _every_fault_kind),
        Cell("fig6e-split-ysb-Klink", _fig6e_split),
        Cell("fig6e-split-ysb-Default", _fig6e_split_default),
        Cell("fig6e-observed", _fig6e_observed),
        Cell(CLI_TRACE_CELL, _experiment(_CLI_TRACE_CONFIG, traced=True)),
        Cell("lineage-traced-lrb-Klink", _lineage_traced),
    ]
    return out


def capture_cell(cell: Cell) -> Record:
    with tempfile.TemporaryDirectory() as tmp:
        return cell.run(Path(tmp))


def canonical(record: Optional[Record]) -> str:
    """Comparable form of a record (summaries may hold NaN, which never
    compares equal to itself)."""
    return json.dumps(record, sort_keys=True)


def environment() -> Dict[str, Any]:
    return {"checkpoint_schema": SCHEMA_VERSION, "numpy": np.__version__}


def load_fixture() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


def refresh(path: Path = FIXTURE) -> Optional[str]:
    """Rewrite the fixture; returns a refusal message instead when the
    checkpoint schema version is unchanged since the last capture."""
    if path.exists():
        pinned = json.loads(path.read_text())["checkpoint_schema"]
        if pinned == SCHEMA_VERSION:
            return (
                f"refusing to refresh {path.name}: checkpoint schema is still "
                f"v{SCHEMA_VERSION}. Golden outputs change only with the "
                "snapshot layout; anything else is a behaviour change to fix."
            )
    payload = dict(environment())
    payload["cells"] = {cell.name: capture_cell(cell) for cell in cells()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return None


def add_new_cells(path: Path = FIXTURE) -> List[str]:
    """Capture the cells the fixture lacks into it; existing records are
    kept as they are. Returns the names of the added cells."""
    payload = json.loads(path.read_text())
    added = [cell for cell in cells() if cell.name not in payload["cells"]]
    for cell in added:
        payload["cells"][cell.name] = capture_cell(cell)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return [cell.name for cell in added]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden", description=__doc__.split("\n\n")[0]
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--refresh", action="store_true",
        help="recapture every cell into the fixture (schema change only); "
        "pytest tests/test_golden.py checks it",
    )
    mode.add_argument(
        "--add", action="store_true",
        help="capture only the cells the fixture lacks, keeping the rest",
    )
    args = parser.parse_args(argv)
    if args.add:
        print(f"added {add_new_cells() or 'no cells'} to {FIXTURE}")
        return 0
    refusal = refresh()
    if refusal is not None:
        print(refusal, file=sys.stderr)
        return 1
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
