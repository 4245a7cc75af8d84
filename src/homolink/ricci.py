"""Ollivier-Ricci edge curvature via exact Wasserstein-1 optimal transport.

Each node x carries the lazy-random-walk measure: idleness mass ``alpha`` on
x itself and (1 - alpha) / deg(x) on each neighbor. The curvature of an edge
(x, y) is 1 - W1(m_x, m_y) / d(x, y) with d the hop metric (so d(x, y) = 1
for an edge).

Costs in closed form: the supports are the closed neighborhoods N[x] and
N[y], and any s in N[x] and t in N[y] are joined by the walk s-x-y-t, so
they are at most 3 hops apart. The hop cost is 0 when s = t, 1 when they are
adjacent, 2 when they share a neighbor and 3 otherwise, read off the
adjacency sets.

Block LP: the transport problems of different edges are independent, so
``ollivier_ricci`` stacks ``EDGE_CHUNK`` of them into one sparse
block-diagonal transportation LP and solves it exactly with HiGHS. Each
edge's W1 is the cost of its own block of the optimal plan. ``wasserstein1``
is a block of one in the same assembly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .graphs import Edge, Graph

logger = logging.getLogger(__name__)

MASS_TOLERANCE = 1e-9
WEIGHT_FLOOR = 1e-6
# Edges per block LP. On the 1,613-edge training graph of the reference
# experiment (2-core VM), chunks of 16-64 edges took 1.3-2.0 s, one edge per
# LP 4.9-5.5 s and one LP for all edges 3.8-4.3 s.
EDGE_CHUNK = 32


@dataclass(eq=False)
class DiscreteMeasure:
    """Probability measure on a finite node set."""

    mass: dict[int, float]

    def __post_init__(self):
        for node, m in self.mass.items():
            if m < 0:
                raise ValueError(f"negative mass {m} at node {node}")
        total = sum(self.mass.values())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"masses must sum to 1, got {total}")

    @property
    def support(self) -> list[int]:
        return sorted(self.mass)

    def masses(self, support: list[int]) -> np.ndarray:
        return np.array([self.mass[s] for s in support])


def _transport(blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Exact W1 of every (a, b, C) block, solved together as one block-diagonal LP.

    Block e has source masses a (r), target masses b (c) and costs C (r, c);
    its plan variables x[i, j] must sum to a[i] over j and to b[j] over i.
    """
    rows = np.array([len(a) for a, _b, _C in blocks])
    cols = np.array([len(b) for _a, b, _C in blocks])
    sizes = rows * cols
    var_start = np.cumsum(sizes) - sizes
    # the (i, j) position of every plan variable inside its own block
    block = np.repeat(np.arange(len(blocks)), sizes)
    local = np.arange(sizes.sum()) - var_start[block]
    i, j = np.divmod(local, cols[block])
    source_row = (np.cumsum(rows) - rows)[block] + i
    target_row = rows.sum() + (np.cumsum(cols) - cols)[block] + j
    var = np.arange(len(local))
    A_eq = coo_matrix(
        (np.ones(2 * len(var)), (np.concatenate([source_row, target_row]), np.tile(var, 2))),
        shape=(rows.sum() + cols.sum(), len(var)),
    ).tocsr()
    b_eq = np.concatenate([a for a, _b, _C in blocks] + [b for _a, b, _C in blocks])
    cost = np.concatenate([C.ravel() for _a, _b, C in blocks])
    # presolve only slows these small blocks down, about twofold
    res = linprog(
        cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs", options={"presolve": False}
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return np.add.reduceat(cost * res.x, var_start)


def wasserstein1(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: dict) -> float:
    """Exact optimal-transport cost between two discrete measures.

    ``cost`` maps (source node, target node) to a nonnegative finite cost.
    Solved as the transportation linear program, a block of one in the
    assembly that ``ollivier_ricci`` uses.
    """
    src = mu.support
    dst = nu.support
    a = mu.masses(src)
    b = nu.masses(dst)
    if abs(a.sum() - b.sum()) > MASS_TOLERANCE:
        raise ValueError("transport infeasible: total masses differ")
    C = np.array([[cost[(x, y)] for y in dst] for x in src], dtype=float)
    if not np.isfinite(C).all() or (C < 0).any():
        raise ValueError("cost must be nonnegative and finite on the supports")
    return float(_transport([(a, b, C)])[0])


def _walk_masses(size: int, alpha: float) -> np.ndarray:
    """Lazy-walk masses on a closed neighborhood listed center first."""
    m = np.full(size, (1.0 - alpha) / (size - 1))
    m[0] = alpha
    return m


def _edge_block(g: Graph, nbrs: list[set[int]], x: int, y: int, alpha: float):
    """(m_x, m_y, hop costs) on the supports [x, *N(x)] and [y, *N(y)]."""
    src = [x, *g.neighbors(x)]
    dst = [y, *g.neighbors(y)]
    C = np.array(
        [
            [
                0.0 if s == t else 1.0 if t in nbrs[s] else 3.0 if nbrs[s].isdisjoint(nbrs[t]) else 2.0
                for t in dst
            ]
            for s in src
        ]
    )
    return _walk_masses(len(src), alpha), _walk_masses(len(dst), alpha), C


def ollivier_ricci(g: Graph, alpha: float = 0.5) -> dict[Edge, float]:
    """Curvature kappa(x, y) = 1 - W1(m_x, m_y) for every edge of the graph.

    Edges go to the LP ``EDGE_CHUNK`` at a time, in the order of ``g.edges``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    nbrs = [set(adj) for adj in g.adjacency]
    kappa: dict[Edge, float] = {}
    for start in range(0, g.num_edges, EDGE_CHUNK):
        chunk = g.edges[start : start + EDGE_CHUNK]
        w1 = _transport([_edge_block(g, nbrs, x, y, alpha) for x, y in chunk])
        kappa.update(zip(chunk, (1.0 - w1).tolist()))
    return kappa


def weights_from_curvature(kappa: dict[Edge, float]) -> tuple[dict[Edge, float], int]:
    """Shift curvatures by +1 into edge weights, clamping nonpositive results.

    Returns the weight map and the number of clamped edges.
    """
    weights = {}
    clamped = 0
    for e, k in kappa.items():
        w = 1.0 + k
        if w <= 0.0:
            w = WEIGHT_FLOOR
            clamped += 1
        weights[e] = w
    return weights, clamped


def ricci_edge_weights(g: Graph, alpha: float = 0.5) -> dict[Edge, float]:
    """Positive edge weights 1 + kappa(e); values clamped to a small floor if needed."""
    weights, clamped = weights_from_curvature(ollivier_ricci(g, alpha))
    if clamped:
        logger.warning("clamped %d nonpositive curvature weights to %g", clamped, WEIGHT_FLOOR)
    return weights
