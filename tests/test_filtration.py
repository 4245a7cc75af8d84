import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homolink.fast_ph import fast_extended_diagram
from homolink.filtration import build_filtration, distance_sum_filter
from homolink.graphs import Graph, enclosing_subgraph, shortest_distances
from homolink.reduction import diagram_via_reduction
from oracles import old_form, random_graph, reference_orders


def edge_part(ford, sequence):
    return [s for s in old_form(ford, sequence) if not isinstance(s, int)]


def test_distance_sum_filter_triangle():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    sub = enclosing_subgraph(g, 0, 1, 1, drop_target_edge=False)
    f = distance_sum_filter(sub)
    assert f[sub.targets[0]] == 1.0
    assert f[sub.targets[1]] == 1.0
    third = [i for i in range(3) if i not in sub.targets][0]
    assert f[third] == 2.0


def test_distance_sum_filter_weighted_gadget():
    # Two targets joined by a light edge; satellites i=1..4 hang off both
    # targets with weight i/2, so the weighted distance sums hit 1, 2, 3, 4.
    # Satellite-satellite edges are heavy and never on a shortest path.
    edges = [(0, 1)]
    weights = {(0, 1): 0.25}
    for i in range(1, 5):
        sat = 1 + i
        edges += [(0, sat), (1, sat)]
        weights[(0, sat)] = i / 2
        weights[(1, sat)] = i / 2
    for a, b in [(2, 4), (3, 4), (2, 5), (3, 5), (4, 5)]:
        edges.append((a, b))
        weights[(a, b)] = 10.0
    g = Graph(6, edges, weights)
    sub = enclosing_subgraph(g, 0, 1, 1, drop_target_edge=False)
    f = distance_sum_filter(sub, use_weights=True)
    to_local = {orig: loc for loc, orig in enumerate(sub.node_map)}
    got = [f[to_local[1 + i]] for i in range(1, 5)]
    assert got == [1.0, 2.0, 3.0, 4.0]
    assert f[to_local[0]] == f[to_local[1]] == 0.25


def test_distance_sum_filter_matches_distance_oracle():
    g = random_graph(np.random.default_rng(2), 12, 0.35)
    weights = {e: float(w) for e, w in zip(g.edges, np.random.default_rng(3).uniform(0.2, 2.0, g.num_edges))}
    g = Graph(g.n, g.edges, weights)
    sub = enclosing_subgraph(g, 0, 1, 2, drop_target_edge=False)
    f = distance_sum_filter(sub, use_weights=True)
    d1 = shortest_distances(sub.graph, sub.targets[0], use_weights=True)
    d2 = shortest_distances(sub.graph, sub.targets[1], use_weights=True)
    finite = np.isfinite(d1 + d2)
    assert np.allclose(f[finite], (d1 + d2)[finite])


def test_distance_sum_filter_clamps_unreachable():
    # node 3 is stranded: it gets one more than the largest finite value
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    sub = enclosing_subgraph(g, 0, 1, 1, drop_target_edge=False)
    # widen to include the isolated node by hand
    from homolink.graphs import EnclosingSubgraph

    sub = EnclosingSubgraph(Graph(4, [(0, 1), (0, 2), (1, 2)]), [0, 1, 2, 3], (0, 1))
    f = distance_sum_filter(sub)
    assert f[3] == f[:3].max() + 1.0


def test_build_filtration_worked_edge_orders(two_loop_graph, two_loop_filter):
    ford = build_filtration(two_loop_graph, two_loop_filter)
    assert edge_part(ford, ford.ascending) == [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert edge_part(ford, ford.descending) == [(2, 3), (1, 3), (1, 2), (0, 3), (0, 2)]


def test_build_filtration_single_edge():
    g = Graph(2, [(0, 1)])
    ford = build_filtration(g, np.array([0.0, 1.0]))
    assert old_form(ford, ford.ascending) == [0, 1, (0, 1)]
    assert old_form(ford, ford.descending) == [1, 0, (0, 1)]


def test_edge_extensions_are_max_and_min():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 15, 0.3)
    f = rng.normal(size=15)
    ford = build_filtration(g, f)
    for e, (u, v) in enumerate(g.edges):
        assert ford.f_asc[e] == max(f[u], f[v])
        assert ford.f_desc[e] == min(f[u], f[v])


@pytest.mark.parametrize("seed", range(5))
def test_sequences_are_permutations_with_faces_first(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 12, 0.4)
    f = rng.integers(0, 4, size=12).astype(float)  # plenty of ties
    ford = build_filtration(g, f)
    simplices = set(range(g.n)) | set(g.edges)
    for seq in (ford.ascending, ford.descending):
        assert len(seq) == ford.num_simplices
        assert set(old_form(ford, seq)) == simplices
    asc_pos = ford.asc_index
    desc_pos = ford.desc_index
    for e, (u, v) in enumerate(g.edges):
        assert asc_pos[g.n + e] > max(asc_pos[u], asc_pos[v])
        assert desc_pos[g.n + e] > max(desc_pos[u], desc_pos[v])


def test_order_monotone_in_filter_value():
    rng = np.random.default_rng(21)
    g = random_graph(rng, 14, 0.3)
    f = rng.permutation(14).astype(float)  # all distinct
    ford = build_filtration(g, f)
    asc_vals = np.concatenate((ford.f_node, ford.f_asc))[ford.ascending].tolist()
    assert asc_vals == sorted(asc_vals)
    desc_vals = np.concatenate((ford.f_node, ford.f_desc))[ford.descending].tolist()
    assert desc_vals == sorted(desc_vals, reverse=True)


def test_build_filtration_deterministic():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 10, 0.5)
    f = rng.integers(0, 3, size=10).astype(float)
    a = build_filtration(g, f)
    b = build_filtration(g, f)
    assert a.ascending.tolist() == b.ascending.tolist()
    assert a.descending.tolist() == b.descending.tolist()


def test_build_filtration_rejects_bad_filters(two_loop_graph):
    with pytest.raises(ValueError):
        build_filtration(two_loop_graph, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        build_filtration(two_loop_graph, np.array([1.0, 2.0, np.inf, 4.0]))


def _tie_heavy_case(seed, n, p, levels):
    """Random graph on n nodes (edgeless when p is 0) with integer filter values in [0, levels)."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    return g, rng.integers(0, levels, size=n).astype(float)


@settings(deadline=None, max_examples=200)
@given(
    st.builds(
        _tie_heavy_case,
        st.integers(0, 2**32 - 1),
        st.integers(0, 14),
        st.sampled_from([0.0, 0.2, 0.5, 0.9]),
        st.integers(1, 4),
    )
)
def test_orders_equal_the_tuple_key_reference(case):
    g, f = case
    ford = build_filtration(g, f)
    ascending, descending = reference_orders(g, f)
    assert old_form(ford, ford.ascending) == ascending
    assert old_form(ford, ford.descending) == descending
    edges = np.array(g.edges, dtype=int).reshape(-1, 2)
    assert ford.f_asc.tolist() == np.maximum(f[edges[:, 0]], f[edges[:, 1]]).tolist()
    assert ford.f_desc.tolist() == np.minimum(f[edges[:, 0]], f[edges[:, 1]]).tolist()
    for diagram in (fast_extended_diagram, diagram_via_reduction):
        for p in diagram(ford, keep_zero=True):
            assert type(p.birth) is float and type(p.death) is float
