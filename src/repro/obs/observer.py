"""The engine's observer protocol.

An observer watches a run and never changes it. The engine keeps the
observers attached through its keyword slots in one ordered tuple,
:attr:`~repro.spe.engine.Engine.observers`, and calls the same four hooks
on each of them, in that order:

* ``on_run_start(engine)`` — when :meth:`~repro.spe.engine.Engine.run` is
  entered, before the first cycle;
* ``on_cycle(engine, record)`` — at the end of every cycle, with the
  cycle's frozen :class:`CycleRecord`;
* ``on_rollback(engine)`` — after a
  :class:`~repro.resilience.recovery.RecoveryManager` rolled the engine
  back to a checkpoint;
* ``on_run_end(engine)`` — when ``run`` returns. It *publishes* (into
  :class:`~repro.spe.metrics.RunMetrics` and the observer's rows) and
  leaves the observer's state running, so ``run(a); run(b)`` publishes
  what ``run(a + b)`` does.

Every hook of :class:`Observer` does nothing; an observer overrides the
ones it needs. Fault injection, recovery and the wall-clock phase
profiler are not observers: they change the cycle (which nodes are down,
rolled-back state) or time it from inside, so the engine calls them at
their own points in the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheduler import Plan, Scheduler, SchedulerContext
    from repro.obs.audit import QueryDecision
    from repro.spe.engine import Engine


@dataclass(frozen=True)
class NodeCycle:
    """One node's part of a cycle: its policy, plan and CPU.

    A down node ran neither its policy nor its tasks: its plan is empty
    and its CPU figures are zero.
    """

    node: int
    scheduler: "Scheduler"
    plan: "Plan"
    #: the policy's explanation of ``plan``, captured at plan time, before
    #: execution drained the queues it ranked on; empty unless an attached
    #: observer sets ``needs_decisions``
    decisions: List["QueryDecision"]
    cpu_used_ms: float
    overhead_ms: float


@dataclass(frozen=True)
class CycleRecord:
    """What one scheduling cycle did, handed to every observer."""

    #: virtual time at the end of the cycle
    time: float
    #: index of the cycle in the run (0-based, continues across runs)
    cycle: int
    ctx: "SchedulerContext"
    backpressured: bool
    #: nodes that were down this cycle
    down: FrozenSet[int]
    #: one entry per node, in node order
    nodes: Tuple[NodeCycle, ...]

    @property
    def cpu_used_ms(self) -> float:
        """CPU the tasks of all nodes used."""
        total = 0.0
        for node in self.nodes:
            total += node.cpu_used_ms
        return total

    @property
    def overhead_ms(self) -> float:
        """Scheduling overhead of all nodes."""
        total = 0.0
        for node in self.nodes:
            total += node.overhead_ms
        return total


class Observer:
    """Base of the engine's observers: every hook does nothing."""

    #: whether the engine should capture each plan's decisions at plan
    #: time for this observer (``NodeCycle.decisions``); explaining a plan
    #: costs a pass over the queries, so only the audit log asks for it
    needs_decisions = False

    def on_run_start(self, engine: "Engine") -> None:
        """``Engine.run`` was entered; no cycle of this run has run yet."""

    def on_cycle(self, engine: "Engine", record: CycleRecord) -> None:
        """One cycle finished."""

    def on_rollback(self, engine: "Engine") -> None:
        """Recovery rolled the engine's state back to a checkpoint."""

    def on_run_end(self, engine: "Engine") -> None:
        """``Engine.run`` is returning: publish, and keep running state."""
