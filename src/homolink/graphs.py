"""Undirected weighted graphs and the neighborhood machinery for pairwise features.

Nodes are integers 0..n-1. Edges are unordered pairs stored canonically as
(min, max) tuples. All operations are pure; graphs are treated as immutable
after construction, so concurrent read-only use is safe.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(eq=False)
class Graph:
    """Simple undirected graph with optional positive finite edge weights and node features.

    Weights default to 1.0 for edges absent from ``edge_weights``.
    ``node_features`` is an optional (n, d) matrix of finite floats.
    """

    n: int
    edges: list[Edge]
    edge_weights: dict[Edge, float] = field(default_factory=dict)
    node_features: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        canon: list[Edge] = []
        seen: set[Edge] = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            e = canonical_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        self.edges = canon
        self.edge_weights = {
            canonical_edge(*e): float(w) for e, w in self.edge_weights.items()
        }
        for e, w in self.edge_weights.items():
            if e not in seen:
                raise ValueError(f"weight given for absent edge {e}")
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"weight {w} on edge {e} is not positive and finite")
        if self.node_features is not None:
            X = np.asarray(self.node_features, dtype=float)
            if X.ndim != 2 or X.shape[0] != self.n:
                raise ValueError("node_features must be an (n, d) matrix")
            if not np.isfinite(X).all():
                node = int(np.argwhere(~np.isfinite(X))[0, 0])
                raise ValueError(f"node {node} has a non-finite feature")
            self.node_features = X

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_index(self) -> dict[Edge, int]:
        """Position of each canonical edge in ``edges``."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self._edge_index

    def weight(self, u: int, v: int) -> float:
        return self.edge_weights.get(canonical_edge(u, v), 1.0)

    def neighbors(self, v: int) -> list[int]:
        return self.adjacency[v]

    def without_edges(self, drop) -> "Graph":
        """Copy of the graph with the given edges removed (weights and features kept)."""
        gone = {canonical_edge(*e) for e in drop}
        kept = [e for e in self.edges if e not in gone]
        weights = {e: w for e, w in self.edge_weights.items() if e not in gone}
        return Graph(self.n, kept, weights, self.node_features)

    def with_weights(self, weights: dict[Edge, float]) -> "Graph":
        """Copy of the graph with ``edge_weights`` replaced by the given map."""
        return Graph(self.n, list(self.edges), dict(weights), self.node_features)


@dataclass(eq=False)
class EnclosingSubgraph:
    """Induced subgraph around a target pair, with local ids mapped back to the original.

    ``node_map[local_id]`` is the original node id; ``targets`` are the local
    ids of the two target nodes, which are always part of the node set.
    """

    graph: Graph
    node_map: list[int]
    targets: tuple[int, int]

    def __post_init__(self):
        t1, t2 = self.targets
        if not (0 <= t1 < self.graph.n and 0 <= t2 < self.graph.n):
            raise ValueError("targets must be nodes of the subgraph")
        if len(self.node_map) != self.graph.n:
            raise ValueError("node_map length must equal subgraph node count")


def shortest_distances(g: Graph, source: int, use_weights: bool = False) -> np.ndarray:
    """Single-source shortest-path distances, with +inf for unreachable nodes.

    Hop metric when ``use_weights`` is off, Dijkstra on the positive edge
    weights otherwise.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    if not use_weights:
        queue = deque([source])
        while queue:
            x = queue.popleft()
            dx = dist[x]
            for y in g.adjacency[x]:
                if np.isinf(dist[y]):
                    dist[y] = dx + 1.0
                    queue.append(y)
        return dist
    heap = [(0.0, source)]
    done = np.zeros(g.n, dtype=bool)
    while heap:
        dx, x = heapq.heappop(heap)
        if done[x]:
            continue
        done[x] = True
        for y in g.adjacency[x]:
            nd = dx + g.weight(x, y)
            if nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return dist


def k_hop_set(g: Graph, v: int, k: int) -> set[int]:
    """Nodes within hop distance k of v. Always hop-based, regardless of weights."""
    if not 0 <= v < g.n:
        raise ValueError(f"node {v} out of range for n={g.n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = {v}
    frontier = [v]
    for _ in range(k):
        nxt = []
        for x in frontier:
            for y in g.adjacency[x]:
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return out


def enclosing_subgraph(
    g: Graph, v1: int, v2: int, k: int, drop_target_edge: bool = False
) -> EnclosingSubgraph:
    """Induced subgraph on the intersection of the two targets' k-hop neighborhoods.

    The targets are always kept in the node set even when the intersection
    would not contain them. With ``drop_target_edge``, the (v1, v2) edge, if
    present, is removed from the subgraph so the feature of a candidate pair
    never encodes the pair's own edge.
    """
    if v1 == v2:
        raise ValueError("target nodes must be distinct")
    nodes = k_hop_set(g, v1, k) & k_hop_set(g, v2, k)
    nodes |= {v1, v2}
    node_map = sorted(nodes)
    local = {orig: i for i, orig in enumerate(node_map)}
    # induced edges from the kept nodes' adjacency, listed in ``g.edges`` order
    edge_index = g._edge_index
    found = sorted(
        edge_index[(u, v)] for u in node_map for v in g.adjacency[u] if v > u and v in local
    )
    target_edge = canonical_edge(v1, v2)
    edges = []
    weights = {}
    for i in found:
        e = g.edges[i]
        if drop_target_edge and e == target_edge:
            continue
        le = (local[e[0]], local[e[1]])
        edges.append(le)
        if e in g.edge_weights:
            weights[le] = g.edge_weights[e]
    sub = Graph(len(node_map), edges, weights)
    return EnclosingSubgraph(sub, node_map, (local[v1], local[v2]))


def pair_count(n: int) -> int:
    """Number of unordered node pairs, n(n-1)/2."""
    return n * (n - 1) // 2


def pair_rows(u, v, n: int):
    """Row of the unordered pair {u, v} in ``itertools.combinations(range(n), 2)`` order.

    Symmetric in (u, v); works elementwise on integer arrays. The rows of all
    pairs are exactly ``range(pair_count(n))``.
    """
    a = np.minimum(u, v)
    b = np.maximum(u, v)
    return a * n - a * (a + 1) // 2 + (b - a - 1)


def sbm_generate(
    n: int,
    communities: int,
    p: float,
    q: float,
    feature_dim: int,
    seed: int,
) -> Graph:
    """Stochastic-block-model graph with equal-size communities.

    Every intra-community pair is an edge with probability p, every
    inter-community pair with probability q. Node features are i.i.d.
    uniform in [0, 1). Output is deterministic given the seed.
    """
    if communities <= 0 or n % communities != 0:
        raise ValueError("communities must divide the node count")
    if not (0.0 <= q <= p <= 1.0):
        raise ValueError("need 0 <= q <= p <= 1")
    if feature_dim < 0:
        raise ValueError("feature_dim must be nonnegative")
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(n, k=1)
    block = n // communities
    same = (ii // block) == (jj // block)
    prob = np.where(same, p, q)
    mask = rng.random(len(ii)) < prob
    edges = list(zip(ii[mask].tolist(), jj[mask].tolist()))
    features = rng.random((n, feature_dim)) if feature_dim > 0 else None
    return Graph(n, edges, node_features=features)
