"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive and shares no code path with the
implementations under test.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from homolink.diagrams import (
    ESSENTIAL_0,
    EXTENDED_1,
    ORDINARY_ASCENDING,
    RELATIVE_DESCENDING,
    DiagramPoint,
    PersistenceDiagram,
)


def brute_force_shortest(g, source, use_weights=False):
    """Exhaustive simple-path enumeration; only for tiny graphs."""
    best = [np.inf] * g.n
    best[source] = 0.0

    def walk(node, cost, visited):
        for y in g.neighbors(node):
            if y in visited:
                continue
            c = cost + (g.weight(node, y) if use_weights else 1.0)
            if c < best[y]:
                best[y] = c
            walk(y, c, visited | {y})

    walk(source, 0.0, {source})
    return np.array(best)


def bfs_ball(g, v, k):
    """Plain breadth-first ball, written independently of the library BFS."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        if dist[x] == k:
            continue
        for y in g.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return set(dist)


def scipy_components(g):
    """(component count, label per node) from ``scipy.sparse.csgraph.connected_components``."""
    rows = [u for u, _ in g.edges]
    cols = [v for _, v in g.edges]
    adjacency = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    return connected_components(adjacency, directed=False)


def lazy_walk_measure(g, z, alpha=0.5):
    """Reference walk measure: idleness alpha at z, the rest spread evenly over its neighbors."""
    from homolink.ricci import DiscreteMeasure

    share = (1.0 - alpha) / len(g.neighbors(z))
    return DiscreteMeasure({z: alpha, **{y: share for y in g.neighbors(z)}})


def reference_orders(g, f):
    """Both filtration orders as nodes (int) and edges ((u, v) tuple), by tuple-key sorts.

    Ascending keys are (f, 0, id) for a node and (max, 1, min, u, v) for an
    edge; descending keys are their negations.
    """
    f = np.asarray(f, dtype=float)

    def asc_key(s):
        if isinstance(s, int):
            return (f[s], 0, s)
        u, v = s
        return (max(f[u], f[v]), 1, min(f[u], f[v]), u, v)

    def desc_key(s):
        if isinstance(s, int):
            return (-f[s], 0, -s)
        u, v = s
        return (-min(f[u], f[v]), 1, -max(f[u], f[v]), -u, -v)

    simplices = list(range(g.n)) + list(g.edges)
    return sorted(simplices, key=asc_key), sorted(simplices, key=desc_key)


def old_form(ford, ids, edge_ids=False):
    """Map simplex ids back to nodes (int) and edges ((u, v) tuple).

    ``ids`` is one id, or a list, tuple, range or array of them, nested to
    any depth; lists and arrays map to lists and tuples to tuples. With
    ``edge_ids`` every id is an edge id, i.e. a simplex id minus ``ford.n``.
    """
    if isinstance(ids, tuple):
        return tuple(old_form(ford, x, edge_ids) for x in ids)
    if isinstance(ids, (list, range, np.ndarray)):
        return [old_form(ford, x, edge_ids) for x in ids]
    s = int(ids) + (ford.n if edge_ids else 0)
    if s < ford.n:
        return s
    u, v = ford.edges[s - ford.n]
    return (int(u), int(v))


def check_spanning_forest(parent, pedge, edges):
    """Check that parent pointers encode a forest: no cycles, and each
    node's parent edge (an index into ``edges``) joins it to its parent."""
    for x in range(len(parent)):
        seen = {x}
        y = x
        while parent[y] != -1:
            e = pedge[y]
            if e == -1 or set(edges[e]) != {y, parent[y]}:
                raise AssertionError(f"inconsistent parent edge at node {y}")
            y = parent[y]
            if y in seen:
                raise AssertionError(f"cycle in parent pointers through node {x}")
            seen.add(y)


def transport_min_cost(a, b, C, tol=1e-12):
    """Exact transportation optimum by enumerating basic feasible solutions.

    Every vertex of the transportation polytope is supported on a spanning
    tree of the bipartite supply/demand graph; enumerate all of them, solve
    each by leaf elimination, and take the cheapest feasible one.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    C = np.asarray(C, dtype=float)
    r, c = len(a), len(b)
    cells = [(i, j) for i in range(r) for j in range(c)]
    nodes = r + c
    best = np.inf
    for basis in itertools.combinations(cells, nodes - 1):
        adj = defaultdict(list)
        for i, j in basis:
            adj[i].append((r + j, (i, j)))
            adj[r + j].append((i, (i, j)))
        seen = {0}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y, _ in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != nodes:
            continue
        remaining = np.concatenate([a, b])
        degree = {u: len(adj[u]) for u in range(nodes)}
        alive = {cell: True for cell in basis}
        flow = {}
        leaves = deque(u for u in range(nodes) if degree[u] == 1)
        while leaves:
            u = leaves.popleft()
            edge = next(
                ((y, cell) for y, cell in adj[u] if alive[cell]), None
            )
            if edge is None:
                continue
            y, cell = edge
            flow[cell] = remaining[u]
            remaining[y] -= remaining[u]
            remaining[u] = 0.0
            alive[cell] = False
            degree[u] -= 1
            degree[y] -= 1
            if degree[y] == 1:
                leaves.append(y)
        if any(f < -tol for f in flow.values()):
            continue
        cost = sum(C[i, j] * max(f, 0.0) for (i, j), f in flow.items())
        best = min(best, cost)
    return best


def gcn_dense_oracle(g, X, w1, w2):
    """Direct nodewise evaluation of the two-layer graph convolution."""
    n = g.n
    nbr = [set(g.neighbors(i)) | {i} for i in range(n)]
    dhat = [len(nbr[i]) for i in range(n)]
    S = np.zeros((n, n))
    for i in range(n):
        for j in nbr[i]:
            S[i, j] = 1.0 / np.sqrt(dhat[i] * dhat[j])
    Z1 = np.zeros((n, w1.shape[1]))
    for i in range(n):
        acc = np.zeros(X.shape[1])
        for j in range(n):
            acc = acc + S[i, j] * X[j]
        Z1[i] = acc @ w1
    H1 = np.where(Z1 > 0, Z1, 0.0)
    H2 = np.zeros((n, w2.shape[1]))
    for i in range(n):
        acc = np.zeros(H1.shape[1])
        for j in range(n):
            acc = acc + S[i, j] * H1[j]
        H2[i] = acc @ w2
    return H2


def dense_loss_and_grads(S, P1, u_idx, v_idx, labels, PI, params, slope=0.2, eps=1e-12):
    """Reference training step: loss and gradients with every intermediate formed in full.

    Builds the concatenated decoder input, applies the leaky ReLU and its
    derivative with ``np.where``, forms the whole decoder-input gradient and
    scatters the pair gradients with two ``np.add.at`` calls.
    """
    B = len(labels)
    Z1g = P1 @ params["w1"]
    H1 = np.maximum(Z1g, 0.0)
    P2 = S @ H1
    H2 = P2 @ params["w2"]
    Hu, Hv = H2[u_idx], H2[v_idx]
    F = np.concatenate([(Hu - Hv) ** 2, PI], axis=1)
    Z1 = F @ params["mlp_w1"] + params["mlp_b1"]
    A1 = np.where(Z1 > 0, Z1, slope * Z1)
    dist = (A1 @ params["mlp_w2"] + params["mlp_b2"]).ravel()
    prob = 1.0 / (np.exp(dist - 2.0) + 1.0)
    p_hat = np.clip(prob, eps, 1.0 - eps)
    loss = -np.mean(labels * np.log(p_hat) + (1.0 - labels) * np.log(1.0 - p_hat))

    d_dist = np.where((prob > eps) & (prob < 1.0 - eps), (labels - prob) / B, 0.0)
    grads = {"mlp_b2": np.array([d_dist.sum()]), "mlp_w2": A1.T @ d_dist[:, None]}
    dA1 = d_dist[:, None] @ params["mlp_w2"].T
    dZ1 = np.where(Z1 > 0, dA1, slope * dA1)
    grads["mlp_w1"] = F.T @ dZ1
    grads["mlp_b1"] = dZ1.sum(axis=0)
    dF = dZ1 @ params["mlp_w1"].T
    dHu = dF[:, : Hu.shape[1]] * 2.0 * (Hu - Hv)
    dH2 = np.zeros_like(H2)
    np.add.at(dH2, u_idx, dHu)
    np.add.at(dH2, v_idx, -dHu)
    grads["w2"] = P2.T @ dH2
    dZ1g = (S.T @ (dH2 @ params["w2"].T)) * (Z1g > 0)
    grads["w1"] = P1.T @ dZ1g
    return float(loss), grads


def pairwise_auc(scores, labels):
    """Mann-Whitney by explicit pair counting."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def random_diagram(rng, max_points=8):
    points = []
    for _ in range(int(rng.integers(0, max_points + 1))):
        dim = int(rng.integers(0, 2))
        if dim == 1:
            kind = EXTENDED_1
        else:
            kind = [ORDINARY_ASCENDING, RELATIVE_DESCENDING, ESSENTIAL_0][
                int(rng.integers(0, 3))
            ]
        points.append(
            DiagramPoint(dim, float(rng.uniform(0, 5)), float(rng.uniform(0, 5)), kind)
        )
    return PersistenceDiagram(points)


def random_graph(rng, n, p):
    edges = [
        (i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    from homolink.graphs import Graph

    return Graph(n, edges)


def shuffled_graph(rng, n, p, weighted=False):
    """Random graph whose edge list comes in random order and orientation.

    With ``weighted``, about half the edges carry a weight in [0.25, 4).
    """
    from homolink.graphs import Graph

    edges = [
        (j, i) if rng.random() < 0.5 else (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    weights = {e: float(rng.uniform(0.25, 4.0)) for e in edges if weighted and rng.random() < 0.5}
    return Graph(n, edges, weights)


def edge_scan_subgraph(g, v1, v2, k, drop_target_edge):
    """Enclosing subgraph by scanning every edge of ``g``.

    Returns (node_map, local edges, local weights, local targets), with the
    edges listed in the order of ``g.edges``.
    """
    node_map = sorted((bfs_ball(g, v1, k) & bfs_ball(g, v2, k)) | {v1, v2})
    local = {x: i for i, x in enumerate(node_map)}
    target = (min(v1, v2), max(v1, v2))
    edges, weights = [], {}
    for u, v in g.edges:
        if u in local and v in local and not (drop_target_edge and (u, v) == target):
            edges.append((local[u], local[v]))
            if (u, v) in g.edge_weights:
                weights[(local[u], local[v])] = g.edge_weights[(u, v)]
    return node_map, edges, weights, (local[v1], local[v2])
