"""Physical plans: operator-to-node assignment.

The SPE devises a physical plan mapping operators to nodes at deployment
time; Klink "functions orthogonally to the deployment problem and is
designed to work with any physical plan" (Sec. 4). Two plans are
provided:

* ``locality`` — whole query pipelines are placed on one node,
  round-robin across nodes. This mirrors the paper's Fig. 6e setup, which
  uses "Flink's built-in mechanism that considers the type of operators
  and memory locality to minimize data mobility".
* ``split`` — each pipeline is cut into contiguous segments spread over
  consecutive nodes (the Fig. 5 scenario), exercising cross-node record
  transfer and the delay/cost information forwarding rules.

The per-cycle readers (the engine's plan localization and forwarding,
the distributed Klink slack) ask the plan which of a query's operators a
node hosts. Placement changes only at standby promotion, so those answers
are tables built once per query on first use; :meth:`PhysicalPlan.reassign`
is the one way to move an operator and drops them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence

from repro.spe.operators import Operator
from repro.spe.query import Query


@dataclass(frozen=True)
class QueryPlacement:
    """One query's placement tables, derived from ``PhysicalPlan.node_of``.

    Every per-node list keeps pipeline order; index by node.
    """

    source_node: int
    local: List[List[Operator]]
    local_ids: List[FrozenSet[int]]
    local_windows: List[List[Operator]]


@dataclass
class PhysicalPlan:
    """Maps every operator (by id) to a node index.

    Write ``node_of`` only while building a plan; move an operator of a
    running deployment with :meth:`reassign`.
    """

    n_nodes: int
    node_of: Dict[int, int] = field(default_factory=dict)
    # id(query) -> its placement tables, built on first use
    _tables: Dict[int, QueryPlacement] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def node_of_operator(self, op: Operator) -> int:
        return self.node_of[id(op)]

    def placement(self, query: Query) -> QueryPlacement:
        """The query's placement tables (built on first use)."""
        tables = self._tables.get(id(query))
        if tables is None:
            node_of = self.node_of
            local: List[List[Operator]] = [[] for _ in range(self.n_nodes)]
            for op in query.operators:
                local[node_of[id(op)]].append(op)
            windows: List[List[Operator]] = [[] for _ in range(self.n_nodes)]
            for op in query.windowed_operators():
                windows[node_of[id(op)]].append(op)
            tables = QueryPlacement(
                source_node=node_of[id(query.operators[0])],
                local=local,
                local_ids=[frozenset(id(op) for op in ops) for ops in local],
                local_windows=windows,
            )
            self._tables[id(query)] = tables
        return tables

    def reassign(self, op: Operator, node: int) -> None:
        """Move ``op`` to ``node``; the placement tables are rebuilt on
        their next read."""
        self.node_of[id(op)] = node
        self._tables = {}  # klink: transient[derived from node_of; rebuilt on the next read]

    def source_node(self, query: Query) -> int:
        """Node hosting the query's first operator (watermark origin)."""
        return self.placement(query).source_node

    def local_operators(self, query: Query, node: int) -> List[Operator]:
        """The query's operators hosted on ``node``, in pipeline order
        (do not mutate the returned list)."""
        return self.placement(query).local[node]

    def is_split(self, query: Query) -> bool:
        nodes = {self.node_of[id(op)] for op in query.operators}
        return len(nodes) > 1

    def cross_node_edges(self, query: Query) -> List[Operator]:
        """Operators whose output crosses a node boundary."""
        out = []
        for op in query.operators:
            down = query.downstream_of(op)
            if down is not None and self.node_of[id(op)] != self.node_of[id(down)]:
                out.append(op)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def locality(cls, queries: Sequence[Query], n_nodes: int) -> "PhysicalPlan":
        """Whole pipelines colocated; queries spread round-robin."""
        if n_nodes < 1:
            raise ValueError(f"need at least one node: {n_nodes}")
        plan = cls(n_nodes=n_nodes)
        for i, query in enumerate(queries):
            node = i % n_nodes
            for op in query.operators:
                plan.node_of[id(op)] = node
        return plan

    @classmethod
    def split(
        cls, queries: Sequence[Query], n_nodes: int, segments: int = 2
    ) -> "PhysicalPlan":
        """Cut each pipeline into up to ``segments`` contiguous pieces.

        Segment boundaries respect topological order, so every cross-node
        edge points "forward" (upstream node -> downstream node), matching
        the Fig. 5 deployment where node A holds the source half and node
        B the window/output half.
        """
        if n_nodes < 1:
            raise ValueError(f"need at least one node: {n_nodes}")
        segments = max(1, min(segments, n_nodes))
        plan = cls(n_nodes=n_nodes)
        for i, query in enumerate(queries):
            ops = query.operators
            n_segs = min(segments, len(ops))
            per_seg = -(-len(ops) // n_segs)  # ceil division
            for j, op in enumerate(ops):
                seg = min(j // per_seg, n_segs - 1)
                plan.node_of[id(op)] = (i + seg) % n_nodes
        return plan
