"""Outside-in instrumentation of the simulator's layers.

Everything here wraps public calls from the benchmark's own files; the
program under test is not edited. Two recorders exist:

* :class:`SetupProbe` wraps ``Engine.run`` only, which is entered once per
  run right before the first scheduling cycle. Untimed runs use it to
  split set-up time from the run, and to stop a run after set-up.
* :class:`LayerTracer` additionally wraps the per-layer calls listed in
  ``NOTES.md`` (operator steps, scheduler plans, checkpoint capture and
  serialization, observer hooks, the forwarding board, workload build and
  plan validation). It counts calls and sums their time in memory;
  low-rate calls are also kept as spans, written out when the run ends.

Both restore every wrapped attribute on exit, and neither changes what
the wrapped call computes: a traced run's summary hash must equal the
untraced runs' hash, which ``run.py`` checks.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.analysis.plan_check as plan_check
import repro.bench.runner as runner
import repro.resilience.checkpoint as checkpoint
import repro.workloads
from repro.bench.perf import CyclePhaseProfiler
from repro.core.scheduler import Scheduler
from repro.distributed import DistributedEngine, ForwardingBoard
from repro.net.delays import DelayModel
from repro.obs import AuditLog, LineageTracker, TelemetrySampler, TraceWriter
from repro.spe.engine import Engine
from repro.spe.events import EventBatch
from repro.spe.operators import Operator
from repro.spe.streams import Channel

_clock = time.perf_counter_ns

PHASES = CyclePhaseProfiler.PHASES


class SetupDone(Exception):
    """Raised from ``Engine.run`` to end a set-up-only run."""


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SetupProbe:
    """Records when each run reaches its first cycle."""

    def __init__(self, stop_after_setup: bool = False) -> None:
        self.stop_after_setup = stop_after_setup
        #: perf_counter_ns at the last ``Engine.run`` entry
        self.setup_end_ns: Optional[int] = None
        self._patches = _Patches()

    def on_run_entry(self, engine: Engine) -> None:
        self.setup_end_ns = _clock()
        if self.stop_after_setup:
            raise SetupDone()

    def __enter__(self) -> "SetupProbe":
        original = Engine.run
        probe = self

        def run(engine: Engine, duration_ms: float):
            probe.on_run_entry(engine)
            return original(engine, duration_ms)

        self._patches.replace(Engine, "run", run)
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.restore()


class LayerTracer(SetupProbe):
    """Counts and times the calls into each layer of one traced run."""

    def __init__(self) -> None:
        super().__init__()
        #: layer name -> [calls, total ns]
        self.totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        #: (name, start ns, end ns, parent span index or -1)
        self.spans: List[Tuple[str, int, int, int]] = []
        self.snapshot_bytes: List[int] = []
        self._open: List[int] = []
        #: ns per cycle phase: single-node laps, or the distributed wrappers
        self.phase_totals_ns: Dict[str, int] = {p: 0 for p in PHASES}

    # -- wrappers --------------------------------------------------------------
    #
    # Three shapes, cheapest first, because the per-call cost of a wrapper
    # is what the traced run's overhead is made of: ``_counted`` only
    # counts; ``_timed`` counts and sums time under one fixed name;
    # ``_spanned`` also keeps a span per call and is for low-rate calls.

    def _counted(self, fn: Callable, name: str) -> Callable:
        """Count the outermost calls of ``fn`` (a channel push that
        forwards to ``push_row``, or back, is one row)."""
        entry = self.totals[name]
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            entry[0] += 1
            depth[0] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0

        return wrapper

    def _timed(self, fn: Callable, name: str) -> Callable:
        entry = self.totals[name]

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[1] += _clock() - start
                entry[0] += 1

        return wrapper

    def _spanned(
        self, fn: Callable, name: str, *, after: Optional[Callable[[Any], None]] = None
    ) -> Callable:
        """Like ``_timed``, keeping a span with its parent span; a call
        nested in another of the same name (a subclass plan calling its
        parent's) is neither counted nor kept."""
        entry = self.totals[name]
        spans = self.spans
        opened = self._open
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            index = len(spans)
            spans.append((name, 0, 0, opened[-1] if opened else -1))
            opened.append(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                depth[0] = 0
                opened.pop()
                entry[0] += 1
                entry[1] += end - start
                spans[index] = (name, start, end, spans[index][3])
            if after is not None:
                after(result)
            return result

        return wrapper

    def _step(self, fn: Callable) -> Callable:
        """``Operator.step``, counted and timed per concrete class."""
        totals = self.totals
        entries: Dict[type, List[int]] = {}

        def step(op, budget_ms, now):
            cls = type(op)
            entry = entries.get(cls)
            if entry is None:
                entry = entries[cls] = totals["spe.step." + cls.__name__]
            start = _clock()
            try:
                return fn(op, budget_ms, now)
            finally:
                entry[1] += _clock() - start
                entry[0] += 1

        return step

    def __enter__(self) -> "LayerTracer":
        super().__enter__()
        patch = self._patches.replace
        for cls in (Engine, DistributedEngine):
            patch(cls, "step_cycle", self._spanned(cls.step_cycle, "spe.cycle"))
        patch(Operator, "step", self._step(Operator.step))
        patch(Channel, "push_row", self._counted(Channel.push_row, "spe.row"))
        original_push = Channel.push
        count_row = self._counted(original_push, "spe.row")

        def push(channel, record, now):
            if isinstance(record, EventBatch):
                return count_row(channel, record, now)
            return original_push(channel, record, now)

        patch(Channel, "push", push)
        for cls in _subclasses(DelayModel):
            if "sample_batch" in cls.__dict__:
                patch(cls, "sample_batch", self._timed(cls.sample_batch, "net.sample_batch"))
        for cls in [Scheduler] + _subclasses(Scheduler):
            if "plan" in cls.__dict__:
                patch(cls, "plan", self._spanned(cls.plan, "core.plan"))
        patch(checkpoint, "capture", self._spanned(checkpoint.capture, "resilience.capture"))
        patch(
            checkpoint,
            "serialize",
            self._spanned(
                checkpoint.serialize,
                "resilience.serialize",
                after=lambda text: self.snapshot_bytes.append(len(text)),
            ),
        )
        patch(AuditLog, "on_cycle", self._spanned(AuditLog.on_cycle, "obs.audit"))
        patch(
            TelemetrySampler,
            "on_cycle",
            self._spanned(TelemetrySampler.on_cycle, "obs.telemetry"),
        )
        for hook in ("on_ingested", "on_swm_ingested", "on_consumed", "on_pane_fire"):
            patch(LineageTracker, hook, self._timed(getattr(LineageTracker, hook), "obs.lineage"))
        patch(TraceWriter, "finalize", self._spanned(TraceWriter.finalize, "obs.trace_finalize"))
        patch(ForwardingBoard, "publish", self._timed(ForwardingBoard.publish, "distributed.publish"))
        patch(ForwardingBoard, "read", self._timed(ForwardingBoard.read, "distributed.read"))
        for module in (repro.workloads, runner):
            patch(module, "build_queries", self._spanned(module.build_queries, "workloads.build"))
        patch(
            plan_check,
            "validate_queries",
            self._spanned(plan_check.validate_queries, "analysis.validate"),
        )
        return self

    # -- phases ----------------------------------------------------------------

    def on_run_entry(self, engine: Engine) -> None:
        super().on_run_entry(engine)
        if isinstance(engine, DistributedEngine):
            self._wrap_distributed_phases(engine)

    def _wrap_distributed_phases(self, engine: DistributedEngine) -> None:
        """Phase times for the distributed cycle loop, which has no
        phase-profiler laps: its per-cycle steps are private methods,
        wrapped on this one engine instance. The plans of every node and
        the forwarding publish make up its schedule phase; drain is the
        rest of the cycle."""
        steps = {
            "_generate_until": "phase.generate",
            "_deliver_ingestions": "phase.deliver",
            "_publish_info": "phase.schedule",
            "_collect": "phase.schedule",
            "_execute_plan": "phase.execute",
        }
        for attr, name in steps.items():
            if hasattr(engine, attr):
                setattr(engine, attr, self._timed(getattr(engine, attr), name))

    def record_phase_profile(self, profiler: CyclePhaseProfiler) -> None:
        """Take the laps of a single-node ``CyclePhaseProfiler``."""
        for phase in PHASES:
            self.phase_totals_ns[phase] = int(profiler.totals_ms[phase] * 1e6)

    def distributed_phases(self) -> None:
        """Fill the phase totals from the distributed-engine wrappers."""
        got = {p: self.totals.get("phase." + p, [0, 0])[1] for p in PHASES}
        got["schedule"] += self.totals.get("core.plan", [0, 0])[1]
        cycle = self.totals.get("spe.cycle", [0, 0])[1]
        got["drain"] = cycle - sum(got[p] for p in PHASES if p != "drain")
        self.phase_totals_ns.update(got)

    def cycle_durations_ns(self) -> List[int]:
        return [end - start for name, start, end, _ in self.spans if name == "spe.cycle"]

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines, times in ns from the first."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": name,
                    "start_ns": start - origin,
                    "dur_ns": end - start,
                    "parent": parent,
                }
                out.write(json.dumps(row, sort_keys=True) + "\n")
