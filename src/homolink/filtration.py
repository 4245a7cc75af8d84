"""Ascending and descending filtration orders from a vertex filter.

A simplex is either a node (int) or an edge ((u, v) tuple). The vertex filter
extends to edges by the max of the endpoint values in the ascending pass and
by the min in the descending pass. Both orders are total: ties are broken
lexicographically so that identical inputs always produce identical sequences
and every edge appears after both of its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import EnclosingSubgraph, Graph, shortest_distances

@dataclass(eq=False)
class FiltrationOrder:
    """Deterministic total orders of all simplices for the two passes.

    ``ascending`` sorts nodes by (value, id) increasing and edges by
    (max endpoint value, other endpoint value, endpoint ids) increasing;
    ``descending`` sorts nodes by (value, id) decreasing and edges by
    (min endpoint value, other endpoint value, endpoint ids) decreasing.
    Within one filter value, nodes precede edges, so faces always come first.
    """

    n: int
    edges: list[tuple[int, int]]
    f_node: np.ndarray
    f_asc: dict[tuple[int, int], float]
    f_desc: dict[tuple[int, int], float]
    ascending: list
    descending: list

    @property
    def num_simplices(self) -> int:
        return self.n + len(self.edges)

    @cached_property
    def asc_index(self) -> dict:
        return {s: i for i, s in enumerate(self.ascending)}

    @cached_property
    def desc_index(self) -> dict:
        return {s: i for i, s in enumerate(self.descending)}


def distance_sum_filter(sub: EnclosingSubgraph, use_weights: bool = False) -> np.ndarray:
    """Vertex filter f(w) = d(w, v1) + d(w, v2) on the subgraph.

    Nodes unreachable from either target are clamped to one more than the
    largest finite value, so they never dominate loops through the targets.
    """
    t1, t2 = sub.targets
    d1 = shortest_distances(sub.graph, t1, use_weights)
    d2 = shortest_distances(sub.graph, t2, use_weights)
    f = d1 + d2
    finite = np.isfinite(f)
    ceiling = (f[finite].max() if finite.any() else 0.0) + 1.0
    f[~finite] = ceiling
    return f


def build_filtration(g: Graph, f: np.ndarray) -> FiltrationOrder:
    """Build both filtration orders for the graph under the given vertex filter."""
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise ValueError("filter must have one value per node")
    if not np.isfinite(f).all():
        raise ValueError("filter values must be finite")

    f_asc = {}
    f_desc = {}
    for u, v in g.edges:
        f_asc[(u, v)] = float(max(f[u], f[v]))
        f_desc[(u, v)] = float(min(f[u], f[v]))

    def asc_key(s):
        if isinstance(s, int):
            return (f[s], 0, s)
        u, v = s
        return (f_asc[s], 1, float(min(f[u], f[v])), u, v)

    def desc_key(s):
        if isinstance(s, int):
            return (-f[s], 0, -s)
        u, v = s
        return (-f_desc[s], 1, -float(max(f[u], f[v])), -u, -v)

    simplices = list(range(g.n)) + list(g.edges)
    ascending = sorted(simplices, key=asc_key)
    descending = sorted(simplices, key=desc_key)
    return FiltrationOrder(
        n=g.n,
        edges=list(g.edges),
        f_node=f,
        f_asc=f_asc,
        f_desc=f_desc,
        ascending=ascending,
        descending=descending,
    )
