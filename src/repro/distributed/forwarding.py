"""Information forwarding between Klink instances (Sec. 4).

In a distributed deployment no single node holds all the runtime data a
priority computation needs: network-delay statistics are observed where
the source operator runs, while execution costs of downstream operators
are known only on the nodes hosting them. Klink forwards:

* **delay information** from the node observing the source/watermark
  stream to every node running downstream operators, and
* **cost information** from downstream nodes to upstream nodes, so the
  node hosting a query's head can price the full end-to-end drain.

Forwarding rides an RPC service, so remote reads observe values one
forwarding period old. The :class:`ForwardingBoard` models exactly that:
each node publishes its local contribution every cycle, and reads from
other nodes return the snapshot published at least ``rpc_latency_ms``
ago. A node reading its own entries sees them fresh.

Forwarding exists only for the policies that read it. A policy that does
registers its node with :meth:`ForwardingBoard.register_reader`; while no
node has, the engine publishes nothing and the board stays empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class QueryInfo:
    """One query's forwarded runtime information, as published."""

    published_at: float
    # delay-side (published by the source node)
    mu: float = 0.0
    chi: float = 0.0
    last_watermark_ts: float = float("-inf")
    next_deadline: Optional[float] = None
    last_swm_ingest_time: Optional[float] = None
    # cost-side (published by each node hosting downstream operators)
    pending_cost_ms: float = 0.0


class ForwardingBoard:
    """RPC-lagged key-value store for inter-node scheduler information."""

    def __init__(self, rpc_latency_ms: float = 2.0) -> None:
        if rpc_latency_ms < 0:
            raise ValueError(f"negative rpc latency: {rpc_latency_ms}")
        self.rpc_latency_ms = rpc_latency_ms
        # (node, query_id) -> [(published_at, info)] — two most recent kept
        self._entries: Dict[Tuple[int, str], List[Tuple[float, QueryInfo]]] = {}
        # nodes whose policy reads the board
        self._readers: Set[int] = set()

    def register_reader(self, node: int) -> None:
        """Declare that ``node``'s policy reads the board."""
        self._readers.add(node)  # klink: transient[wiring fixed when the per-node policies are built]

    @property
    def has_readers(self) -> bool:
        """Whether any node's policy reads the board (publishing is
        wasted work otherwise)."""
        return bool(self._readers)

    def publish(self, node: int, query_id: str, info: QueryInfo) -> None:
        """Publish ``node``'s local information about ``query_id``."""
        history = self._entries.setdefault((node, query_id), [])
        history.append((info.published_at, info))
        if len(history) > 2:
            del history[0]

    def read(
        self, reader_node: int, owner_node: int, query_id: str, now: float
    ) -> Optional[QueryInfo]:
        """Read ``owner_node``'s info about a query from ``reader_node``.

        Local reads are fresh; remote reads see the newest snapshot that
        is at least ``rpc_latency_ms`` old (the value the RPC service has
        already delivered).
        """
        history = self._entries.get((owner_node, query_id))
        if not history:
            return None
        if reader_node == owner_node:
            return history[-1][1]
        cutoff = now - self.rpc_latency_ms
        for published_at, info in reversed(history):
            if published_at <= cutoff:
                return info
        return None
