"""Multi-node engine with decentralized per-node schedulers (Sec. 4).

Each node runs its own scheduler instance over the operators the physical
plan placed on it, with its own CPU budget (``cores_per_node`` x cycle).
Cross-node edges carry an RPC transfer latency. Klink instances exchange
delay and cost information through a :class:`ForwardingBoard` whose
remote reads lag by the RPC latency, exactly as the paper's design: the
node hosting a query's source publishes watermark/delay statistics
downstream, and every node hosting downstream operators publishes its
local pending cost upstream (Fig. 5's forwarding arrows). Only policies
that read the board register as its readers; under query-level
baselines no node does, and nothing is published.
"""

from __future__ import annotations

import math
from typing import Callable, FrozenSet, List, Sequence, Tuple

from repro.core.estimator import SwmEstimate
from repro.core.klink import KlinkScheduler
from repro.core.scheduler import Allocation, Plan, Scheduler, SchedulerContext
from repro.core.slack import expected_slack, interval_steps
from repro.distributed.forwarding import ForwardingBoard, QueryInfo
from repro.distributed.placement import PhysicalPlan
from repro.spe.engine import Engine
from repro.spe.query import Query
from repro.spe.streams import Channel


class DistributedKlinkScheduler(KlinkScheduler):
    """Klink instance running on one node of a distributed deployment.

    Differences from the single-node evaluator:

    * the slack of a query whose source node is elsewhere is computed from
      the delay information that node *forwarded* (one RPC period stale);
    * the cost term aggregates the local pending cost with the costs the
      downstream/upstream nodes published (cost forwarding).
    """

    def __init__(self, node: int, board: ForwardingBoard, plan: PhysicalPlan, **kwargs):
        super().__init__(**kwargs)
        self.node = node
        self.board = board
        self.physical_plan = plan
        self.name = f"Klink@node{node}"
        board.register_reader(node)

    def _forwarded_cost(self, query: Query, now: float) -> float:
        """Total pending cost: every node's published share for the query."""
        total = 0.0
        for node in range(self.physical_plan.n_nodes):
            info = self.board.read(self.node, node, query.query_id, now)
            if info is not None:
                total += info.pending_cost_ms
        return total

    def query_slack(self, query: Query, ctx: SchedulerContext) -> Tuple[float, int]:
        placement = self.physical_plan.placement(query)
        source_node = placement.source_node
        if source_node == self.node:
            return super().query_slack(query, ctx)
        info = self.board.read(self.node, source_node, query.query_id, ctx.now)
        if info is None or info.next_deadline is None:
            return math.inf, 0
        cost = self._forwarded_cost(query, ctx.now)
        # Pending-SWM check against the forwarded watermark state and the
        # locally hosted window operators' buffered panes.
        for op in placement.local_windows[self.node]:
            deadlines = op.pending_pane_deadlines()
            if deadlines and deadlines[0] <= info.last_watermark_ts:
                return deadlines[0] - ctx.now, 0
        # Proactive branch from forwarded delay moments.
        spec = query.bindings[0].spec
        generation = self.estimator.swm_generation_time(
            info.next_deadline,
            spec.watermark_period_ms,
            spec.lateness_ms,
            phase=query.deployed_at,
        )
        std = max(math.sqrt(max(info.chi - info.mu * info.mu, 0.0)), 1.0)
        mean = generation + info.mu
        estimate = SwmEstimate(
            mean=mean,
            std=std,
            t_min=mean - self.estimator.z * std,
            t_max=mean + self.estimator.z * std,
            deadline=info.next_deadline,
            swm_generation=generation,
        )
        slack = expected_slack(estimate, ctx.now, cost, ctx.cycle_ms)
        return slack, interval_steps(estimate, ctx.now, ctx.cycle_ms)


class DistributedEngine(Engine):
    """Engine spanning several nodes with per-node scheduling.

    The cycle loop is :meth:`Engine.step_cycle`; this class adds only the
    placement (which node hosts which operator, re-placement on standby
    promotion) and the forwarding (cross-node transfer latency and the
    board the per-node policies exchange information on).
    ``scheduler_factory`` builds one policy instance per node; pass
    :class:`DistributedKlinkScheduler` via :meth:`with_klink` or any
    query-level baseline via :meth:`with_policy`. Every other keyword is
    an :class:`Engine` keyword; ``cores`` is ``cores_per_node`` times the
    node count.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        scheduler_factory: Callable[[int, ForwardingBoard, PhysicalPlan], Scheduler],
        plan: PhysicalPlan,
        *,
        cores_per_node: int = 24,
        rpc_latency_ms: float = 2.0,
        **engine_kwargs,
    ) -> None:
        self.plan = plan
        self.board = ForwardingBoard(rpc_latency_ms)
        self.rpc_latency_ms = float(rpc_latency_ms)
        node_schedulers = [
            scheduler_factory(node, self.board, plan)
            for node in range(plan.n_nodes)
        ]
        super().__init__(
            queries,
            node_schedulers[0],
            cores=cores_per_node * plan.n_nodes,
            **engine_kwargs,
        )
        self.node_schedulers = node_schedulers
        self.cores_per_node = cores_per_node
        # Attach transfer latency to cross-node edges.
        self._delayed_channels: List[Channel] = []
        for query in self.queries:
            for op in plan.cross_node_edges(query):
                channel = op.output
                if channel is not None:
                    channel.latency_ms = rpc_latency_ms
                    self._delayed_channels.append(channel)

    # -- convenience constructors ------------------------------------------------

    @classmethod
    def with_klink(
        cls,
        queries: Sequence[Query],
        plan: PhysicalPlan,
        *,
        enable_memory_management: bool = True,
        **engine_kwargs,
    ) -> "DistributedEngine":
        def factory(node: int, board: ForwardingBoard, p: PhysicalPlan) -> Scheduler:
            return DistributedKlinkScheduler(
                node, board, p, enable_memory_management=enable_memory_management
            )

        return cls(queries, factory, plan, **engine_kwargs)

    @classmethod
    def with_policy(
        cls,
        queries: Sequence[Query],
        plan: PhysicalPlan,
        policy_factory: Callable[[], Scheduler],
        **engine_kwargs,
    ) -> "DistributedEngine":
        def factory(node: int, board: ForwardingBoard, p: PhysicalPlan) -> Scheduler:
            return policy_factory()

        return cls(queries, factory, plan, **engine_kwargs)

    # -- forwarding ---------------------------------------------------------------

    def _release_transfers(self, now: float) -> None:
        for channel in self._delayed_channels:
            channel.release(now)

    def _publish_info(self, now: float, down_nodes: FrozenSet[int]) -> None:
        if not self.board.has_readers:
            return  # no policy reads the board (query-level baselines)
        for query in self.queries:
            unit = query.unit_costs()
            placement = self.plan.placement(query)
            source_node = placement.source_node
            for node, local_ops in enumerate(placement.local):
                if node in down_nodes:
                    continue  # a failed node publishes nothing; reads go stale
                if not local_ops:
                    continue
                info = QueryInfo(published_at=now)
                info.pending_cost_ms = sum(
                    op.queued_events * unit[op] for op in local_ops
                )
                if node == source_node:
                    progresses = [
                        b.progress for b in query.bindings if b.progress is not None
                    ]
                    if progresses:
                        mus = [p.current_epoch_mean()[0] for p in progresses]
                        chis = [p.current_epoch_mean()[1] for p in progresses]
                        info.mu = sum(mus) / len(mus)
                        info.chi = sum(chis) / len(chis)
                        info.last_watermark_ts = min(
                            p.last_watermark_ts for p in progresses
                        )
                        deadlines = [
                            p.next_deadline
                            for p in progresses
                            if p.next_deadline is not None
                        ]
                        info.next_deadline = min(deadlines) if deadlines else None
                        ingests = [
                            p.last_swm_ingest_time
                            for p in progresses
                            if p.last_swm_ingest_time is not None
                        ]
                        info.last_swm_ingest_time = max(ingests) if ingests else None
                self.board.publish(node, query.query_id, info)

    # -- placement ----------------------------------------------------------------

    def _source_node(self, query: Query) -> int:
        return self.plan.source_node(query)

    def _on_standby_promotion(self, node: int, now: float) -> None:
        """Re-place the failed node's operators onto a hot standby.

        The standby is modelled as spare capacity on the surviving node
        with the fewest operators (ties to the lowest index): placement
        entries, and channel transfer latencies, are rewritten so the
        moved operators run there from the next plan onward. Everything
        downstream — ``_localize``, ``plan.local_operators``, the
        forwarding board, the per-node schedulers — reads the placement
        tables that :meth:`PhysicalPlan.reassign` drops, so the promotion
        takes effect cluster-wide at once. Placement is infrastructure
        state: a re-placement survives rollback, like the wall clock.
        """
        survivors = [
            n
            for n in range(self.plan.n_nodes)
            if n != node
            and not (self.faults is not None and self.faults.node_down(n, now))
        ]
        if not survivors:
            return  # total outage: nothing to promote onto
        load = {n: 0 for n in survivors}
        for target_node in self.plan.node_of.values():
            if target_node in load:
                load[target_node] += 1
        target = min(survivors, key=lambda n: (load[n], n))
        moved = [
            op
            for query in self.queries
            for op in self.plan.local_operators(query, node)
        ]
        for op in moved:
            self.plan.reassign(op, target)
        # Re-derive which edges now cross nodes (the moved operators may
        # have gained or lost co-location with their neighbours).
        for query in self.queries:
            cross = {id(op) for op in self.plan.cross_node_edges(query)}
            for op in query.operators:
                channel = op.output
                if channel is None:
                    continue
                if id(op) in cross:
                    channel.latency_ms = self.rpc_latency_ms
                    if channel not in self._delayed_channels:
                        self._delayed_channels.append(channel)  # klink: transient[derived channel wiring, re-computed from the placement plan]
                else:
                    channel.latency_ms = 0.0

    def _localize(self, plan: Plan, node: int) -> Plan:
        """Restrict a node's plan to the operators hosted on that node."""
        allocations = []
        for alloc in plan.allocations:
            placement = self.plan.placement(alloc.query)
            if alloc.operators is None:
                local = placement.local[node]
            else:
                hosted = placement.local_ids[node]
                local = [op for op in alloc.operators if id(op) in hosted]
            if local:
                allocations.append(Allocation(alloc.query, local))
        return Plan(allocations, mode=plan.mode)
