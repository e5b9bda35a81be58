"""Determinism of seeded runs.

Two runs with the same seed and the same active :class:`FaultPlan` must
produce *byte-identical* metrics — the fault layer is a pure function of
(identity, time), so it must not perturb the engine's RNG streams or
introduce any order-dependence. A different seed must produce different
network-delay samples (the runs genuinely differ, rather than the seed
being ignored). Checkpoint bytes must not depend on earlier runs in the
same process, and the source burst walk must be driven by the seed.
"""

import dataclasses
import json

from repro.bench.runner import make_scheduler
from repro.core.klink import KlinkScheduler
from repro.faults import (
    FaultPlan,
    InvariantMonitor,
    MemoryPressureSpike,
    OperatorSlowdown,
    SourceStall,
    WatermarkStraggler,
)
from repro.net.delays import UniformDelay
from repro.resilience.checkpoint import capture, serialize
from repro.spe.engine import Engine
from repro.spe.operators import FilterOperator, SinkOperator, WindowedAggregate
from repro.spe.query import Query, SourceBinding, SourceSpec, chain
from repro.spe.windows import TumblingEventTimeWindows
from repro.workloads import WorkloadParams, build_queries
from tests.helpers import make_simple_query


def make_stochastic_query(query_id: str = "q0", *, seed: int = 0) -> Query:
    """source -> filter -> window -> sink with a *random* delay model."""
    delay_model = UniformDelay(0.0, 400.0, seed=seed)
    spec = SourceSpec(
        name=f"{query_id}.src",
        rate_eps=800.0,
        watermark_period_ms=500.0,
        lateness_ms=delay_model.bound,
        delay_model=delay_model,
    )
    filt = FilterOperator(f"{query_id}.filter", 0.01, selectivity=0.5)
    window = WindowedAggregate(
        f"{query_id}.window",
        TumblingEventTimeWindows(1000.0),
        cost_per_event_ms=0.01,
        output_events_per_pane=10.0,
        key_by="key",
    )
    sink = SinkOperator(f"{query_id}.sink")
    operators = chain(filt, window, sink)
    binding = SourceBinding(spec, filt, seed=seed)
    return Query(query_id, [binding], operators, sink)


def make_plan() -> FaultPlan:
    return FaultPlan([
        SourceStall(2_000.0, 4_000.0),
        WatermarkStraggler(5_000.0, 9_000.0, extra_delay_ms=1_500.0),
        OperatorSlowdown(10_000.0, 13_000.0, factor=3.0),
        MemoryPressureSpike(14_000.0, 16_000.0, extra_bytes=64 * 1024 * 1024),
    ])


def run_once(seed: int, faults: FaultPlan | None):
    engine = Engine(
        [make_stochastic_query(seed=seed)],
        KlinkScheduler(),
        cores=2,
        cycle_ms=100.0,
        seed=seed,
        faults=faults,
        invariants=InvariantMonitor(),
    )
    metrics = engine.run(20_000.0)
    return engine, metrics


def fingerprint(metrics) -> str:
    """Full repr of every RunMetrics field — byte-identical or not."""
    return repr(dataclasses.asdict(metrics))


class TestDeterminism:
    def test_same_seed_same_plan_byte_identical(self):
        _, a = run_once(seed=42, faults=make_plan())
        _, b = run_once(seed=42, faults=make_plan())
        assert fingerprint(a) == fingerprint(b)

    def test_same_seed_no_faults_byte_identical(self):
        _, a = run_once(seed=7, faults=None)
        _, b = run_once(seed=7, faults=None)
        assert fingerprint(a) == fingerprint(b)

    def test_different_seed_different_delay_samples(self):
        engine_a, a = run_once(seed=1, faults=make_plan())
        engine_b, b = run_once(seed=2, faults=make_plan())
        # The seed feeds the network-delay RNG: the observed delay moments
        # must differ between the two runs.
        pa = engine_a.queries[0].bindings[0].progress
        pb = engine_b.queries[0].bindings[0].progress
        assert pa is not None and pb is not None
        assert pa.current_epoch_mean() != pb.current_epoch_mean()
        assert fingerprint(a) != fingerprint(b)

    def test_fault_plan_changes_the_run(self):
        _, clean = run_once(seed=42, faults=None)
        _, faulty = run_once(seed=42, faults=make_plan())
        assert fingerprint(clean) != fingerprint(faulty)
        assert faulty.fault_cycles > 0


class TestCheckpointBytesAcrossRuns:
    @staticmethod
    def _snapshot() -> str:
        queries = build_queries("ysb", 3, WorkloadParams(seed=7))
        engine = Engine(
            queries, make_scheduler("Klink"), cores=8, cycle_ms=100.0, seed=7
        )
        engine.run(25_000.0)
        return serialize(capture(engine))

    def test_same_seed_runs_in_one_process_serialize_identically(self):
        # Nothing process-global (such as a marker id counter) may leak
        # into a snapshot: the second run must encode the same bytes.
        first = self._snapshot()
        assert '"t":"m"' in first  # in-flight latency markers are encoded
        assert self._snapshot() == first


class TestBurstStateDeterminism:
    """The burst state machine consumes ``binding.rng`` in interval order;
    reruns must be bit-stable and the seed must drive the walk."""

    @staticmethod
    def _bursty_fingerprint(seed: int) -> str:
        queries = [
            make_simple_query(
                "bursty-q0", rate_eps=5_000.0, burst_factor=3.0, seed=seed
            )
        ]
        engine = Engine(
            queries,
            make_scheduler("Default"),
            cores=2,
            cycle_ms=100.0,
            seed=seed,
        )
        metrics = engine.run(10_000.0)
        return json.dumps(metrics.summary(), sort_keys=True)

    def test_same_seed_is_byte_stable(self):
        assert self._bursty_fingerprint(5) == self._bursty_fingerprint(5)

    def test_seed_actually_drives_the_burst_walk(self):
        assert self._bursty_fingerprint(5) != self._bursty_fingerprint(6)
