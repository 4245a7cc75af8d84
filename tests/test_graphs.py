import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homolink.graphs import (
    Graph,
    enclosing_subgraph,
    k_hop_set,
    pair_count,
    pair_rows,
    sbm_generate,
    shortest_distances,
)
from oracles import (
    bfs_ball,
    brute_force_shortest,
    edge_scan_subgraph,
    shuffled_graph,
)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], edge_weights={(0, 1): -2.0})


def test_graph_rejects_nonfinite_weights():
    # an infinite weight used to pass and flatten the weighted filter
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 2)], {(0, 1): math.inf})
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 2)], {(0, 1): math.nan})


def test_graph_rejects_nonfinite_node_features():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="node 2 has a non-finite feature"):
            Graph(3, [(0, 1), (1, 2)], node_features=[[0.0], [1.0], [bad]])


def test_shortest_distances_path_graph():
    g = Graph(3, [(0, 1), (1, 2)])
    assert shortest_distances(g, 0).tolist() == [0.0, 1.0, 2.0]


def test_shortest_distances_single_node():
    g = Graph(1, [])
    assert shortest_distances(g, 0).tolist() == [0.0]


def test_shortest_distances_source_out_of_range():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        shortest_distances(g, 2)


@pytest.mark.parametrize("seed", range(6))
def test_shortest_distances_match_path_enumeration(seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i, j in itertools.combinations(range(5), 2) if rng.random() < 0.6]
    weights = {e: float(rng.uniform(0.1, 3.0)) for e in edges}
    g = Graph(5, edges, weights)
    for use_weights in (False, True):
        got = shortest_distances(g, 0, use_weights)
        want = brute_force_shortest(g, 0, use_weights)
        assert np.allclose(got, want, equal_nan=False)


@pytest.mark.parametrize("seed", range(4))
def test_shortest_distances_triangle_inequality(seed):
    rng = np.random.default_rng(100 + seed)
    edges = [(i, j) for i, j in itertools.combinations(range(8), 2) if rng.random() < 0.4]
    g = Graph(8, edges, {e: float(rng.uniform(0.2, 2.0)) for e in edges})
    dists = [shortest_distances(g, s, use_weights=True) for s in range(g.n)]
    for s in range(g.n):
        assert dists[s][s] == 0.0
        for u, v in edges:
            assert dists[s][v] <= dists[s][u] + g.weight(u, v) + 1e-12
            assert dists[s][u] <= dists[s][v] + g.weight(u, v) + 1e-12


def test_k_hop_star_center():
    g = Graph(5, [(0, i) for i in range(1, 5)])
    assert k_hop_set(g, 0, 1) == {0, 1, 2, 3, 4}


def test_k_hop_zero_radius():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert k_hop_set(g, 2, 0) == {2}


def test_k_hop_cycle():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert k_hop_set(g, 0, 2) == {4, 5, 0, 1, 2}


def test_enclosing_subgraph_triangle():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    sub = enclosing_subgraph(g, 0, 1, 1, drop_target_edge=False)
    assert sub.graph.n == 3
    assert sorted(sub.graph.edges) == [(0, 1), (0, 2), (1, 2)]
    assert sub.node_map == [0, 1, 2]


def test_enclosing_subgraph_distant_targets():
    # targets joined only through a path of length 4; 1-hop balls do not meet
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub = enclosing_subgraph(g, 0, 4, 1)
    assert sub.graph.n == 2
    assert sub.graph.num_edges == 0
    assert {sub.node_map[t] for t in sub.targets} == {0, 4}


def test_enclosing_subgraph_drop_target_edge():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    sub = enclosing_subgraph(g, 0, 1, 1, drop_target_edge=True)
    assert sorted(sub.graph.edges) == [(0, 2), (1, 2)]
    # targets stay in the node set even though their edge is gone
    assert {sub.node_map[t] for t in sub.targets} == {0, 1}


def test_enclosing_subgraph_equal_targets_rejected():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        enclosing_subgraph(g, 1, 1, 1)


def test_enclosing_subgraph_matches_ball_intersection():
    g = sbm_generate(60, 3, 0.3, 0.05, 0, seed=5)
    pairs = [e for e in g.edges[:10]]
    for u, v in pairs:
        sub = enclosing_subgraph(g, u, v, 1, drop_target_edge=False)
        want = (bfs_ball(g, u, 1) & bfs_ball(g, v, 1)) | {u, v}
        assert set(sub.node_map) == want
        for (a, b) in sub.graph.edges:
            assert g.has_edge(sub.node_map[a], sub.node_map[b])


def test_enclosing_subgraph_monotone_in_k():
    g = sbm_generate(40, 2, 0.2, 0.05, 0, seed=9)
    prev = set()
    for k in range(4):
        sub = enclosing_subgraph(g, 0, 1, k)
        nodes = set(sub.node_map)
        assert prev <= nodes
        prev = nodes


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
    p=st.floats(0.1, 0.9),
    k=st.integers(1, 3),
    drop=st.booleans(),
    data=st.data(),
)
def test_enclosing_subgraph_matches_edge_scan_oracle(seed, n, p, k, drop, data):
    g = shuffled_graph(np.random.default_rng(seed), n, p, weighted=True)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
    sub = enclosing_subgraph(g, u, v, k, drop_target_edge=drop)
    node_map, edges, weights, targets = edge_scan_subgraph(g, u, v, k, drop)
    assert sub.node_map == node_map
    assert sub.graph.edges == edges
    assert list(sub.graph.edge_weights.items()) == list(weights.items())
    assert sub.targets == targets


@settings(deadline=None)
@given(n=st.integers(0, 40))
def test_pair_rows_bijective_and_symmetric(n):
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=int).reshape(-1, 2)
    rows = pair_rows(pairs[:, 0], pairs[:, 1], n)
    assert np.array_equal(rows, np.arange(pair_count(n)))
    assert np.array_equal(pair_rows(pairs[:, 1], pairs[:, 0], n), rows)
    for row, (u, v) in enumerate(pairs[:5].tolist()):
        assert pair_rows(u, v, n) == pair_rows(v, u, n) == row


def test_sbm_degenerate_probabilities():
    g = sbm_generate(10, 2, 1.0, 0.0, 0, seed=1)
    # two disjoint 5-cliques
    want = []
    for base in (0, 5):
        want += [(base + i, base + j) for i, j in itertools.combinations(range(5), 2)]
    assert sorted(g.edges) == sorted(want)

    empty = sbm_generate(10, 2, 0.0, 0.0, 0, seed=1)
    assert empty.num_edges == 0


def test_sbm_edge_count_within_three_sigma():
    n, c, p, q = 1000, 5, 0.25, 0.015
    g = sbm_generate(n, c, p, q, 0, seed=7)
    block = n // c
    n_intra = c * block * (block - 1) // 2
    n_inter = n * (n - 1) // 2 - n_intra
    mean = n_intra * p + n_inter * q
    var = n_intra * p * (1 - p) + n_inter * q * (1 - q)
    assert abs(g.num_edges - mean) <= 3 * math.sqrt(var)


def test_sbm_deterministic():
    a = sbm_generate(50, 5, 0.3, 0.05, 8, seed=42)
    b = sbm_generate(50, 5, 0.3, 0.05, 8, seed=42)
    assert a.edges == b.edges
    assert np.array_equal(a.node_features, b.node_features)


def test_sbm_feature_shape_and_range():
    g = sbm_generate(20, 4, 0.5, 0.1, 6, seed=3)
    assert g.node_features.shape == (20, 6)
    assert ((g.node_features >= 0) & (g.node_features < 1)).all()


def test_sbm_invalid_arguments():
    with pytest.raises(ValueError):
        sbm_generate(10, 3, 0.5, 0.1, 0, seed=0)  # 3 does not divide 10
    with pytest.raises(ValueError):
        sbm_generate(10, 2, 0.1, 0.5, 0, seed=0)  # q > p
