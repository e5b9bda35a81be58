"""Wall-clock performance harness for the simulator itself.

Everything else in ``repro.bench`` measures *simulated* metrics on the
virtual clock; this module measures how fast the simulator *runs* on the
host — the quantity the engine hot-path work (pane-deadline heap, queue
memoization) and the parallel sweep executor exist to improve.

``run_perf`` times a pinned grid of experiment points (YSB and LRB under
the Default and Klink policies) with caching disabled, so every number is
a real simulation. Each point is timed best-of-``repeats`` to damp host
scheduling noise. With ``jobs > 1`` an additional pass times the same
grid through the parallel executor and reports the speedup.

The result is packaged as a ``BENCH_perf.json`` snapshot in the
``repro.obs.compare`` format, so the existing regression tooling applies
unchanged: per-point wall milliseconds ride in the ``latency_ms``
percentiles and the ``hottest_operators`` table (one "operator" per grid
point), and simulated-events-per-wall-second rides in
``throughput_eps``. ``repro-bench compare BASELINE CURRENT`` then flags
a slowdown exactly like it flags a simulated regression. Wall time is
machine-dependent: only compare snapshots from comparable hosts, and
treat CI comparisons as advisory (the CI job is warn-only).

This file is allowlisted for lint rule KL001 (wall-clock access): the
harness reads the host clock *about* the simulator, never inside it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_many,
)

#: pinned measurement grid — change it only deliberately: timings are
#: comparable across runs (and against the checked-in baseline) only
#: while the grid stays fixed. ~10 s of serial wall time on one core.
PERF_SEED = 11
PERF_DURATION_MS = 60_000.0
PERF_N_QUERIES = 20
PERF_GRID: List[ExperimentConfig] = [
    ExperimentConfig(
        workload=workload,
        scheduler=scheduler,
        n_queries=PERF_N_QUERIES,
        duration_ms=PERF_DURATION_MS,
        seed=PERF_SEED,
    )
    for workload in ("ysb", "lrb")
    for scheduler in ("Default", "Klink")
]


def point_label(config: ExperimentConfig) -> str:
    return f"{config.workload}/{config.scheduler}/n{config.n_queries}"


class CyclePhaseProfiler:
    """Wall-clock breakdown of one engine run into cycle phases.

    Installed on ``Engine.phase_profiler``; the engine calls
    :meth:`cycle_start` at the top of each cycle, :meth:`lap` after each
    phase, and :meth:`cycle_end` at the bottom. The profiler is a pure
    observer of host time — the simulation never reads it, so profiled
    and unprofiled runs produce byte-identical outputs (modulo wall
    clock). Phases: generate (source record synthesis), deliver (network
    → channel ingestion), schedule (collect + plan + audit), execute
    (operator work), drain (metrics, telemetry, audit, checkpoints).
    """

    PHASES = ("generate", "deliver", "schedule", "execute", "drain")

    def __init__(self) -> None:
        self.totals_ms: Dict[str, float] = {p: 0.0 for p in self.PHASES}
        self.cycles = 0
        self._mark = 0.0

    def cycle_start(self) -> None:
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        t = time.perf_counter()
        self.totals_ms[phase] += 1000.0 * (t - self._mark)
        self._mark = t

    def cycle_end(self) -> None:
        self.cycles += 1

    def per_cycle_ms(self) -> Dict[str, float]:
        """Mean milliseconds spent in each phase per scheduling cycle."""
        if self.cycles == 0:
            return {p: 0.0 for p in self.PHASES}
        return {p: self.totals_ms[p] / self.cycles for p in self.PHASES}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cycles": self.cycles,
            "totals_ms": dict(self.totals_ms),
            "per_cycle_ms": self.per_cycle_ms(),
        }


@dataclass(frozen=True)
class PerfPoint:
    """Timing of one grid point (best of ``repeats`` serial runs)."""

    label: str
    wall_ms: float
    simulated_ms: float
    events: float
    #: optional CyclePhaseProfiler.to_dict() of the fastest repeat
    phases: Optional[Dict[str, Any]] = None

    @property
    def events_per_wall_sec(self) -> float:
        if self.wall_ms <= 0.0:
            return 0.0
        return self.events / (self.wall_ms / 1000.0)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "label": self.label,
            "wall_ms": self.wall_ms,
            "simulated_ms": self.simulated_ms,
            "events": self.events,
            "events_per_wall_sec": self.events_per_wall_sec,
        }
        if self.phases is not None:
            out["phases"] = self.phases
        return out


def _time_point(
    config: ExperimentConfig, repeats: int, profile: bool = False
) -> PerfPoint:
    best: Optional[float] = None
    result: Optional[ExperimentResult] = None
    best_profiler: Optional[CyclePhaseProfiler] = None
    for _ in range(repeats):
        profiler = CyclePhaseProfiler() if profile else None
        t0 = time.perf_counter()
        result = run_experiment(config, phase_profiler=profiler)
        elapsed_ms = 1000.0 * (time.perf_counter() - t0)
        if best is None or elapsed_ms < best:
            best = elapsed_ms
            best_profiler = profiler
    assert best is not None and result is not None
    return PerfPoint(
        label=point_label(config),
        wall_ms=best,
        simulated_ms=config.duration_ms,
        events=result.metrics.total_events_processed,
        phases=best_profiler.to_dict() if best_profiler is not None else None,
    )


def _percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (pct / 100.0) * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def run_perf(
    *,
    jobs: int = 1,
    repeats: int = 1,
    grid: Optional[Sequence[ExperimentConfig]] = None,
    profile: bool = False,
) -> Dict[str, Any]:
    """Time the pinned grid; return a BENCH_perf snapshot dict.

    Caching is bypassed throughout (every timed run is a real
    simulation). ``repeats`` re-times each point serially and keeps the
    fastest run. ``jobs > 1`` additionally times one parallel
    ``run_many`` pass over the whole grid and records the speedup
    relative to the serial total.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1: {repeats}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    configs = list(PERF_GRID if grid is None else grid)
    if not configs:
        raise ValueError("perf grid is empty")
    points = [_time_point(config, repeats, profile=profile) for config in configs]
    serial_ms = sum(p.wall_ms for p in points)
    total_events = sum(p.events for p in points)
    total_simulated = sum(p.simulated_ms for p in points)

    parallel: Optional[Dict[str, Any]] = None
    if jobs > 1:
        t0 = time.perf_counter()
        run_many(configs, jobs=jobs, cache=None)
        parallel_ms = 1000.0 * (time.perf_counter() - t0)
        parallel = {
            "jobs": jobs,
            "wall_ms": parallel_ms,
            "speedup": (serial_ms / parallel_ms) if parallel_ms > 0 else 0.0,
            "cpus": os.cpu_count(),
        }

    walls = sorted(p.wall_ms for p in points)
    snapshot: Dict[str, Any] = {
        "snapshot_version": 1,
        "workload": "perf",
        "scheduler": "grid",
        "n_queries": sum(c.n_queries for c in configs),
        "seed": PERF_SEED,
        "duration_ms": total_simulated,
        "cores": configs[0].cores,
        "cycle_ms": configs[0].cycle_ms,
        "latency_ms": {
            "mean": serial_ms / len(points),
            "p50": _percentile(walls, 50.0),
            "p90": _percentile(walls, 90.0),
            "p99": _percentile(walls, 99.0),
        },
        "throughput_eps": (
            total_events / (serial_ms / 1000.0) if serial_ms > 0 else 0.0
        ),
        "deadline_misses": 0,
        "watermark_lag_ms": {"mean": None, "max": None},
        "alerts": {"total": 0, "by_rule": {}},
        "series_count": len(points),
        "hottest_operators": [
            {"name": p.label, "cpu_ms": p.wall_ms}
            for p in sorted(points, key=lambda p: (-p.wall_ms, p.label))
        ],
        "points": [p.to_dict() for p in points],
        "repeats": repeats,
    }
    if parallel is not None:
        snapshot["parallel"] = parallel
    return snapshot


def render_perf(snapshot: Dict[str, Any]) -> str:
    """Human-readable table of one perf snapshot."""
    lines = ["=== simulator perf (wall clock) ==="]
    lines.append(
        f"  {'point':24s} {'wall(ms)':>10s} {'sim(s)':>8s} "
        f"{'Mev/wall-s':>11s}"
    )
    for row in snapshot.get("points", []):
        lines.append(
            f"  {row['label']:24s} {row['wall_ms']:10.1f} "
            f"{row['simulated_ms'] / 1000.0:8.1f} "
            f"{row['events_per_wall_sec'] / 1e6:11.2f}"
        )
    latency = snapshot.get("latency_ms", {})
    lines.append(
        f"  per-point wall ms: mean={latency.get('mean', 0.0):.1f} "
        f"p50={latency.get('p50', 0.0):.1f} p90={latency.get('p90', 0.0):.1f}"
    )
    lines.append(
        f"  simulated events per wall second: "
        f"{snapshot.get('throughput_eps', 0.0) / 1e6:.2f}M"
    )
    parallel = snapshot.get("parallel")
    if parallel:
        lines.append(
            f"  parallel pass (jobs={parallel['jobs']}, "
            f"cpus={parallel['cpus']}): {parallel['wall_ms']:.1f} ms, "
            f"speedup {parallel['speedup']:.2f}x over serial"
        )
    if any("phases" in row for row in snapshot.get("points", [])):
        lines.append("  phase breakdown (ms/cycle):")
        header = CyclePhaseProfiler.PHASES
        lines.append(
            "  " + f"{'point':24s}" + "".join(f"{p:>10s}" for p in header)
        )
        for row in snapshot.get("points", []):
            phases = row.get("phases")
            if not phases:
                continue
            per_cycle = phases["per_cycle_ms"]
            lines.append(
                "  "
                + f"{row['label']:24s}"
                + "".join(f"{per_cycle[p]:10.4f}" for p in header)
            )
    return "\n".join(lines)
