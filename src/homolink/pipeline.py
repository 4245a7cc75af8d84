"""Per-pair topological features: subgraph -> filter -> filtration -> diagram -> image.

The vicinity is always the hop-based k-hop intersection; the metric choice
only affects the distance-sum filter, and this module alone decides how.
With ``metric="ricci"`` the filter uses the graph's edge weights for shortest
paths, so callers install curvature weights once on the full training graph
(``metric_graph``) and every subgraph inherits them. With ``metric="hop"``
distances count hops.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np

from .diagrams import PersistenceDiagram
from .fast_ph import fast_extended_diagram
from .filtration import FiltrationOrder, build_filtration, distance_sum_filter
from .graphs import EnclosingSubgraph, Graph, enclosing_subgraph, pair_count, pair_rows
from .images import ImageSpec, persistence_image
from .ricci import ricci_edge_weights

logger = logging.getLogger(__name__)

METRICS = ("hop", "ricci")


def apply_ricci_weights(g: Graph, alpha: float = 0.5) -> Graph:
    """Graph with edge weights replaced by 1 + Ollivier-Ricci curvature."""
    if g.edge_weights:
        logger.warning("replacing %d input edge weights with Ricci weights", len(g.edge_weights))
    return g.with_weights(ricci_edge_weights(g, alpha))


def metric_graph(g: Graph, metric: str, alpha: float = 0.5) -> Graph:
    """The graph whose subgraphs the metric's filter reads: Ricci-weighted under ``ricci``."""
    return apply_ricci_weights(g, alpha) if metric == "ricci" else g


def subgraph_filtration(sub: EnclosingSubgraph, metric: str) -> FiltrationOrder:
    """Distance-sum filtration: weighted distances under ``ricci``, hops under ``hop``."""
    f = distance_sum_filter(sub, use_weights=(metric == "ricci"))
    return build_filtration(sub.graph, f)


def pair_diagram(
    g: Graph,
    u: int,
    v: int,
    k: int,
    metric: str = "hop",
    drop_target_edge: bool = True,
) -> tuple[PersistenceDiagram, int]:
    """Extended persistence diagram of the pair's enclosing subgraph, plus its size.

    A degenerate subgraph (at most the two targets and no edges) yields the
    empty diagram.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    sub = enclosing_subgraph(g, u, v, k, drop_target_edge=drop_target_edge)
    if sub.graph.n <= 2 and sub.graph.num_edges == 0:
        return PersistenceDiagram([]), sub.graph.n
    return fast_extended_diagram(subgraph_filtration(sub, metric)), sub.graph.n


def pair_image_table(
    g: Graph,
    k: int,
    metric: str,
    spec: ImageSpec,
    known=(),
) -> np.ndarray:
    """Persistence image of every unordered node pair, one row each.

    The result has shape ``(pair_count(g.n), spec.dim)`` and row
    ``pair_rows(u, v, g.n)`` holds the image of {u, v}, i.e. rows follow
    ``itertools.combinations(range(g.n), 2)``. Each image is that of
    ``pair_diagram(g, u, v, k, metric)``, so a pair's own edge never enters
    its row. ``known`` is an iterable of ``((u, v), diagram)`` items already
    computed that way; their rows reuse the diagram, so no pair's diagram is
    computed twice.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    table = np.empty((pair_count(g.n), spec.dim))
    done = np.zeros(len(table), dtype=bool)
    for (u, v), diagram in known:
        row = pair_rows(u, v, g.n)
        table[row] = persistence_image(diagram, spec)
        done[row] = True
    for row, (u, v) in enumerate(itertools.combinations(range(g.n), 2)):
        if not done[row]:
            diagram, _size = pair_diagram(g, u, v, k, metric)
            table[row] = persistence_image(diagram, spec)
    return table
