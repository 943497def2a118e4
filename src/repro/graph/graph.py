"""The computation graph container (directed acyclic graph of operators)."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .node import DataEdge, OpNode

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ComputationGraph", "GraphValidationError"]


class GraphValidationError(ValueError):
    """Raised when a graph violates a structural invariant."""


class ComputationGraph:
    """A DAG of :class:`OpNode` connected by :class:`DataEdge`.

    Provides topological ordering (the kernel-launch order the GPU substrate
    consumes), validation, disjoint union (used to fuse CLIP's two encoder
    graphs into one multimodal graph), and JSON serialization (our stand-in
    for ONNX export).
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.nodes: dict[int, OpNode] = {}
        self.edges: list[DataEdge] = []
        self._out_adj: dict[int, list[int]] = {}
        self._in_adj: dict[int, list[int]] = {}

    # -- construction ---------------------------------------------------- #
    def add_node(self, node: OpNode) -> OpNode:
        if node.node_id in self.nodes:
            raise GraphValidationError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        self._out_adj[node.node_id] = []
        self._in_adj[node.node_id] = []
        return node

    def add_edge(self, edge: DataEdge) -> DataEdge:
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise GraphValidationError(
                f"edge ({edge.src} -> {edge.dst}) references unknown node")
        if edge.src == edge.dst:
            raise GraphValidationError(f"self-loop at node {edge.src}")
        self.edges.append(edge)
        self._out_adj[edge.src].append(edge.dst)
        self._in_adj[edge.dst].append(edge.src)
        return edge

    # -- basic queries ----------------------------------------------------- #
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def successors(self, node_id: int) -> list[int]:
        return list(self._out_adj[node_id])

    def predecessors(self, node_id: int) -> list[int]:
        return list(self._in_adj[node_id])

    def in_edges(self, node_id: int) -> list[DataEdge]:
        return [e for e in self.edges if e.dst == node_id]

    def out_edges(self, node_id: int) -> list[DataEdge]:
        return [e for e in self.edges if e.src == node_id]

    def total_flops(self) -> int:
        return sum(n.flops for n in self.nodes.values())

    def op_type_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for n in self.nodes.values():
            hist[n.op_type] = hist.get(n.op_type, 0) + 1
        return hist

    # -- ordering / validation --------------------------------------------- #
    def topological_order(self) -> list[int]:
        """Kahn's algorithm; deterministic (lowest node id first).

        Raises :class:`GraphValidationError` on cycles.
        """
        indeg = {nid: len(self._in_adj[nid]) for nid in self.nodes}
        import heapq
        ready = [nid for nid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for succ in self._out_adj[nid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != len(self.nodes):
            raise GraphValidationError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Check all structural invariants; raise on the first violation."""
        self.topological_order()  # acyclicity
        for edge in self.edges:
            src = self.nodes[edge.src]
            if edge.tensor_shape and src.output_shape and \
                    edge.tensor_shape != src.output_shape:
                raise GraphValidationError(
                    f"edge ({edge.src}->{edge.dst}) carries {edge.tensor_shape} "
                    f"but source outputs {src.output_shape}")
        for node in self.nodes.values():
            if node.flops < 0 or node.temp_bytes < 0:
                raise GraphValidationError(
                    f"node {node.node_id} has negative cost")

    # -- composition --------------------------------------------------------- #
    def disjoint_union(self, other: "ComputationGraph",
                       name: str = "") -> "ComputationGraph":
        """Combine two graphs with re-numbered nodes (multimodal fusion).

        This is how CLIP's image and text encoder graphs become one graph
        that runs "both encoders simultaneously" (Section V-A2).
        """
        merged = ComputationGraph(name or f"{self.name}+{other.name}")
        for node in self.nodes.values():
            merged.add_node(OpNode.from_dict(node.to_dict()))
        offset = (max(self.nodes) + 1) if self.nodes else 0
        for node in other.nodes.values():
            d = node.to_dict()
            d["node_id"] = node.node_id + offset
            merged.add_node(OpNode.from_dict(d))
        for e in self.edges:
            merged.add_edge(DataEdge.from_dict(e.to_dict()))
        for e in other.edges:
            d = e.to_dict()
            d["src"] += offset
            d["dst"] += offset
            merged.add_edge(DataEdge.from_dict(d))
        return merged

    # -- interop ------------------------------------------------------------- #
    def to_networkx(self) -> nx.DiGraph:
        """The graph as a ``networkx.DiGraph`` (needs networkx installed)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for nid, node in self.nodes.items():
            g.add_node(nid, op_type=node.op_type, flops=node.flops)
        for e in self.edges:
            g.add_edge(e.src, e.dst, tensor_bytes=e.tensor_bytes)
        return g

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "nodes": [n.to_dict() for n in self.nodes.values()],
            "edges": [e.to_dict() for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ComputationGraph":
        g = cls(d.get("name", ""))
        for nd in d["nodes"]:
            g.add_node(OpNode.from_dict(nd))
        for ed in d["edges"]:
            g.add_edge(DataEdge.from_dict(ed))
        return g

    @classmethod
    def from_json(cls, s: str) -> "ComputationGraph":
        return cls.from_dict(json.loads(s))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ComputationGraph({self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")
