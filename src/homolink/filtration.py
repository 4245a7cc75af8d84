"""Ascending and descending filtration orders from a vertex filter.

A simplex is an integer id: ``s < n`` is node ``s`` and ``s >= n`` is edge
``s - n`` of the graph's edge list. The vertex filter extends to edges by the
max of the endpoint values in the ascending pass and by the min in the
descending pass. Both orders are total: ties are broken lexicographically so
that identical inputs always produce identical sequences and every edge
appears after both of its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import EnclosingSubgraph, Graph, shortest_distances


@dataclass(eq=False)
class FiltrationOrder:
    """Deterministic total orders of all simplex ids for the two passes.

    ``edges`` is the ``(m, 2)`` array of edge endpoints (u < v), ``f_asc``
    and ``f_desc`` the ``(m,)`` arrays of each edge's max and min endpoint
    value. ``ascending`` sorts nodes by (value, id) increasing and edges by
    (max endpoint value, min endpoint value, u, v) increasing;
    ``descending`` sorts nodes by (value, id) decreasing and edges by
    (min endpoint value, max endpoint value, u, v) decreasing. Within one
    filter value, nodes precede edges, so faces always come first.
    ``asc_index`` and ``desc_index`` are the inverse permutations: the
    position of each simplex id in its order.
    """

    n: int
    edges: np.ndarray
    f_node: np.ndarray
    f_asc: np.ndarray
    f_desc: np.ndarray
    ascending: np.ndarray
    descending: np.ndarray
    asc_index: np.ndarray
    desc_index: np.ndarray

    @property
    def num_simplices(self) -> int:
        return self.n + len(self.edges)


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

    n = g.n
    edges = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    fu, fv = f[u], f[v]
    # the first endpoint's value on ties, as Python's max and min pick it
    f_asc = np.where(fv > fu, fv, fu)
    f_desc = np.where(fv < fu, fv, fu)

    # Sort keys over simplex ids, least significant first. Nodes and edges
    # never tie on (value, kind), so the tie-break key may be the node id for
    # nodes and the other endpoint value for edges; u * n + v orders edges by
    # (u, v). The descending order reverses an ascending sort on the negated
    # kind, which keeps nodes ahead of edges of the same value.
    ids = np.arange(n, dtype=float)
    kind = np.arange(n + len(edges)) >= n
    uv = np.concatenate((0 * ids, u * n + v))
    ascending = np.lexsort((uv, np.concatenate((ids, f_desc)), kind, np.concatenate((f, f_asc))))
    descending = np.lexsort(
        (uv, np.concatenate((ids, f_asc)), ~kind, np.concatenate((f, f_desc)))
    )[::-1]
    return FiltrationOrder(
        n, edges, f, f_asc, f_desc, ascending, descending,
        asc_index=np.argsort(ascending), desc_index=np.argsort(descending),
    )
