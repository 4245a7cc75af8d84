"""Correctness checks computed apart from the program.

Every check returns a list of failure messages; an empty list is a pass.
Distances, components and transport costs come from ``scipy.sparse.csgraph``
and ``scipy.optimize.linprog`` on the benchmark's own matrices, never from the
program's helpers, and nothing is compared against a stored copy of earlier
output. The checks run outside the timed spans.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

AUC_FLOOR = 0.6  # the acceptance floor of the reference experiment
RICCI_TOLERANCE = 1e-9
RICCI_WEIGHT_FLOOR = 1e-6  # documented stand-in for a nonpositive 1 + kappa
ESSENTIAL_0 = "essential-0"


def adjacency(n: int, edges) -> csr_matrix:
    edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    ones = np.ones(len(edges))
    a = csr_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n))
    return a + a.T


def hop_distances(n: int, edges, sources) -> np.ndarray:
    """Unweighted shortest-path lengths from each source (rows), inf if unreachable."""
    return shortest_path(adjacency(n, edges), unweighted=True, directed=False, indices=list(sources))


def check_diagram_pair(fast, reduction) -> list[str]:
    """The fast diagram and the reduction oracle are equal as multisets."""
    a, b = Counter(fast), Counter(reduction)
    if a == b:
        return []
    return [f"fast and reduction diagrams differ: only fast {dict(a - b)}, only reduction {dict(b - a)}"]


def check_diagram_counts(n: int, edges, f, full, dropped) -> list[str]:
    """Properties of the zero-kept diagram ``full`` of the graph under filter ``f``.

    Dimension-1 points number the cycle rank |E| - |V| + c and essential-0
    points the c components, each born at its component's minimum filter
    value and dying at its maximum. ``dropped`` (the diagram without
    zero-persistence points) is ``full`` minus its zero-persistence points.
    """
    edges = list(edges)
    c, labels = connected_components(adjacency(n, edges), directed=False)
    out = []
    dim1 = sum(1 for p in full if p[0] == 1)
    if dim1 != len(edges) - n + c:
        out.append(f"{dim1} dimension-1 points, cycle rank is {len(edges) - n + c}")
    essential = sorted((p[1], p[2]) for p in full if p[3] == ESSENTIAL_0)
    f = np.asarray(f, dtype=float)
    spans = sorted((float(f[labels == i].min()), float(f[labels == i].max())) for i in range(c))
    if len(essential) != c:
        out.append(f"{len(essential)} essential-0 points, {c} components")
    elif essential != spans:
        out.append(f"essential-0 points {essential} are not the component spans {spans}")
    nonzero = Counter(p for p in full if p[1] != p[2])
    if nonzero != Counter(dropped):
        out.append("the diagram without zero-persistence points is not the zero-kept diagram minus them")
    return out


def check_subgraph(g_n: int, g_edges, u: int, v: int, k: int, node_map, sub_edges) -> list[str]:
    """Nodes are the intersection of the targets' k-hop balls plus the targets;
    edges are the induced edges without the target edge, in local ids."""
    d = hop_distances(g_n, g_edges, [u, v])
    expected = set(np.flatnonzero((d[0] <= k) & (d[1] <= k)).tolist()) | {u, v}
    out = []
    if list(node_map) != sorted(expected):
        out.append(f"subgraph of ({u},{v}) has {len(node_map)} nodes, expected {len(expected)}")
        return out
    local = {orig: i for i, orig in enumerate(node_map)}
    want = sorted(
        (local[a], local[b])
        for a, b in g_edges
        if a in local and b in local and {a, b} != {u, v}
    )
    got = sorted((min(a, b), max(a, b)) for a, b in sub_edges)
    if got != want:
        out.append(f"subgraph of ({u},{v}) has {len(got)} edges, expected {len(want)}")
    return out


def expected_filter(n: int, edges, targets) -> np.ndarray:
    """d(., t1) + d(., t2) in hops; unreachable nodes at one above the largest finite value."""
    d = hop_distances(n, edges, targets)
    f = d[0] + d[1]
    finite = np.isfinite(f)
    f[~finite] = (f[finite].max() if finite.any() else 0.0) + 1.0
    return f


def check_filter(n: int, edges, targets, f) -> list[str]:
    want = expected_filter(n, edges, targets)
    f = np.asarray(f, dtype=float)
    if f.shape != want.shape:
        return [f"filter has shape {f.shape}, expected {want.shape}"]
    if not np.array_equal(f, want):
        return [f"filter differs from d(.,u)+d(.,v) at {int(np.sum(f != want))} nodes"]
    return []


def check_image(img, dim: int) -> list[str]:
    img = np.asarray(img)
    out = []
    if img.shape != (dim,):
        out.append(f"image has shape {img.shape}, expected ({dim},)")
    if not np.isfinite(img).all():
        out.append("image has non-finite pixels")
    elif (img < 0).any():
        out.append("image has negative pixels")
    return out


def check_auc(auc: float, variant: str) -> list[str]:
    if not auc >= AUC_FLOOR:
        return [f"{variant} test AUC {auc:.4f} below the floor {AUC_FLOOR}"]
    return []


def check_split(edges, split) -> list[str]:
    """Positives partition the graph's edges; negatives are distinct non-edges."""
    edge_set = {(min(a, b), max(a, b)) for a, b in edges}
    canon = lambda pairs: [(min(a, b), max(a, b)) for a, b in pairs]
    pos = canon(split.train_pos) + canon(split.val_pos) + canon(split.test_pos)
    neg = canon(split.val_neg) + canon(split.test_neg)
    out = []
    if len(pos) != len(set(pos)) or set(pos) != edge_set:
        out.append("train/val/test positives do not partition the graph's edges")
    if len(neg) != len(set(neg)) or set(neg) & edge_set or any(a == b for a, b in neg):
        out.append("negatives are not distinct non-edges")
    return out


def transport_w1(a, b, cost) -> float:
    """Exact W1 as a transportation LP built from the marginals and the cost matrix."""
    r, c = cost.shape
    rows = np.kron(np.eye(r), np.ones((1, c)))
    cols = np.kron(np.ones((1, r)), np.eye(c))
    res = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]), b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def ricci_weight(n: int, edges, x: int, y: int, alpha: float) -> float:
    """1 + kappa(x, y), kappa = 1 - W1 between the lazy random walks at x and y."""
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)

    def measure(z):
        share = (1.0 - alpha) / len(nbrs[z])
        return [z] + nbrs[z], np.array([alpha] + [share] * len(nbrs[z]))

    src, a = measure(x)
    dst, b = measure(y)
    d = hop_distances(n, edges, src)
    return 2.0 - transport_w1(a, b, d[:, dst])


def check_ricci(n: int, edges, weights: dict, sample, alpha: float) -> list[str]:
    out = []
    for x, y in sample:
        want = ricci_weight(n, edges, x, y, alpha)
        got = weights[(x, y)]
        ok = abs(got - want) <= RICCI_TOLERANCE if want > 0 else 0 < got <= RICCI_WEIGHT_FLOOR
        if not ok:
            out.append(f"Ricci weight of ({x},{y}) is {got!r}, transport gives {want!r}")
    return out
