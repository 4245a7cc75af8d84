"""Per-pair topological features: subgraph -> filter -> filtration -> diagram -> image.

The vicinity is always the hop-based k-hop intersection; the metric choice
only affects the distance-sum filter. With ``metric="ricci"`` the filter uses
the graph's edge weights for shortest paths, so callers install curvature
weights once on the full training graph (``apply_ricci_weights``) and every
subgraph inherits them. With ``metric="hop"`` distances count hops.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagrams import PersistenceDiagram
from .fast_ph import fast_extended_diagram
from .filtration import build_filtration, distance_sum_filter
from .graphs import Graph, canonical_edge, enclosing_subgraph
from .images import ImageSpec, persistence_image
from .ricci import ricci_edge_weights

logger = logging.getLogger(__name__)

METRICS = ("hop", "ricci")


@dataclass(eq=False)
class PairFeature:
    """Topological feature of one candidate node pair."""

    pair: tuple[int, int]
    diagram: PersistenceDiagram
    image: np.ndarray
    metadata: dict


def apply_ricci_weights(g: Graph, alpha: float = 0.5) -> Graph:
    """Graph with edge weights replaced by 1 + Ollivier-Ricci curvature."""
    if g.edge_weights:
        logger.warning("replacing %d input edge weights with Ricci weights", len(g.edge_weights))
    return g.with_weights(ricci_edge_weights(g, alpha))


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
    f = distance_sum_filter(sub, use_weights=(metric == "ricci"))
    ford = build_filtration(sub.graph, f)
    return fast_extended_diagram(ford), sub.graph.n


def pair_feature(
    g: Graph,
    u: int,
    v: int,
    k: int,
    metric: str = "hop",
    spec: ImageSpec | None = None,
    drop_target_edge: bool = True,
) -> PairFeature:
    """Full feature for one pair: diagram and persistence image."""
    spec = spec or ImageSpec()
    diagram, size = pair_diagram(g, u, v, k, metric, drop_target_edge)
    image = persistence_image(diagram, spec)
    return PairFeature(
        pair=(u, v),
        diagram=diagram,
        image=image,
        metadata={"k": k, "metric": metric, "subgraph_size": size},
    )


def _feature_chunk(args):
    g, pairs, k, metric, spec, drop_target_edge = args
    return [pair_feature(g, u, v, k, metric, spec, drop_target_edge) for u, v in pairs]


def batch_features(
    g: Graph,
    pairs,
    k: int,
    metric: str = "hop",
    spec: ImageSpec | None = None,
    workers: int = 1,
    drop_target_edge: bool = True,
) -> list[PairFeature]:
    """Features for many pairs; output order matches input order, any worker count."""
    spec = spec or ImageSpec()
    pairs = list(pairs)
    if workers <= 1 or len(pairs) < 2 * workers:
        return [pair_feature(g, u, v, k, metric, spec, drop_target_edge) for u, v in pairs]
    chunk = (len(pairs) + workers - 1) // workers
    jobs = [
        (g, pairs[i : i + chunk], k, metric, spec, drop_target_edge)
        for i in range(0, len(pairs), chunk)
    ]
    out: list[PairFeature] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_feature_chunk, jobs):
            out.extend(part)
    return out


class CachedImageProvider:
    """Memoized (u, v) -> persistence image map over a fixed graph and spec.

    Each distinct pair is computed once; results are independent of call
    order. Suitable as the image provider for training, where fresh negative
    pairs appear every epoch.
    """

    def __init__(
        self,
        g: Graph,
        k: int,
        metric: str,
        spec: ImageSpec,
        drop_target_edge: bool = True,
    ):
        self.graph = g
        self.k = k
        self.metric = metric
        self.spec = spec
        self.drop_target_edge = drop_target_edge
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.spec.dim

    def seed_diagram(self, u: int, v: int, diagram: PersistenceDiagram) -> None:
        """Record a precomputed diagram so its image is not recomputed later."""
        self._cache[canonical_edge(u, v)] = persistence_image(diagram, self.spec)

    def __call__(self, u: int, v: int) -> np.ndarray:
        key = canonical_edge(u, v)
        img = self._cache.get(key)
        if img is None:
            diagram, _ = pair_diagram(
                self.graph, key[0], key[1], self.k, self.metric, self.drop_target_edge
            )
            img = persistence_image(diagram, self.spec)
            self._cache[key] = img
        return img


class ZeroImageProvider:
    """Topology-ablated provider: every pair gets the zero image."""

    def __init__(self, dim: int):
        self.dim = dim
        self._zero = np.zeros(dim)

    def __call__(self, u: int, v: int) -> np.ndarray:
        return self._zero
