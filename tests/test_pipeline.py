import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homolink import pipeline
from homolink.filtration import build_filtration, distance_sum_filter
from homolink.graphs import Graph, enclosing_subgraph, pair_rows, sbm_generate
from homolink.images import ImageSpec, persistence_image
from homolink.pipeline import apply_ricci_weights, pair_diagram, pair_image_table
from homolink.reduction import diagram_via_reduction
from oracles import shuffled_graph

SPEC = ImageSpec(resolution=(5, 5), sigma=0.4, bounds=(-0.5, 8.0, -0.5, 8.0))


def test_disjoint_neighborhoods_give_zero_image():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    diagram, size = pair_diagram(g, 0, 4, 1)
    assert len(diagram) == 0
    assert (persistence_image(diagram, SPEC) == 0).all()
    assert size == 2


def test_pair_feature_matches_reduction_oracle():
    g = sbm_generate(80, 4, 0.3, 0.03, 0, seed=12)
    for u, v in g.edges[:8]:
        diagram, _size = pair_diagram(g, u, v, 1)
        sub = enclosing_subgraph(g, u, v, 1, drop_target_edge=True)
        if sub.graph.n <= 2 and sub.graph.num_edges == 0:
            assert len(diagram) == 0
            continue
        ford = build_filtration(sub.graph, distance_sum_filter(sub))
        oracle = diagram_via_reduction(ford)
        assert diagram.as_multiset() == oracle.as_multiset()
        assert np.array_equal(persistence_image(diagram, SPEC), persistence_image(oracle, SPEC))


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    p=st.floats(0.2, 0.9),
    k=st.integers(1, 3),
    metric=st.sampled_from(["hop", "ricci"]),
)
def test_pair_feature_symmetric_in_targets(seed, n, p, k, metric):
    g = shuffled_graph(np.random.default_rng(seed), n, p, weighted=True)
    for u, v in itertools.combinations(range(n), 2):
        a, _ = pair_diagram(g, u, v, k, metric)
        b, _ = pair_diagram(g, v, u, k, metric)
        assert a.as_multiset() == b.as_multiset()
        assert np.array_equal(persistence_image(a, SPEC), persistence_image(b, SPEC))


def test_pair_feature_rejects_unknown_metric():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        pair_diagram(g, 0, 2, 1, metric="euclidean")


def test_ricci_weights_warn_when_replacing_input_weights(caplog):
    g = Graph(3, [(0, 1), (1, 2)])
    with caplog.at_level("WARNING", logger="homolink.pipeline"):
        apply_ricci_weights(g, alpha=0.5)
        assert not caplog.records
        apply_ricci_weights(g.with_weights({(0, 1): 2.0}), alpha=0.5)
    assert "replacing 1 input edge weights" in caplog.text


def test_ricci_metric_uses_installed_weights():
    g = sbm_generate(30, 3, 0.5, 0.1, 0, seed=8)
    weighted = apply_ricci_weights(g, alpha=0.5)
    assert set(weighted.edge_weights) == set(g.edges)
    u, v = weighted.edges[0]
    hop = pair_diagram(weighted, u, v, 1, metric="hop")[0]
    ricci = pair_diagram(weighted, u, v, 1, metric="ricci")[0]
    # same subgraph either way: hop sums are integers, curvature sums are not
    hop_values = {p.birth for p in hop.points} | {p.death for p in hop.points}
    assert all(float(x).is_integer() for x in hop_values)
    assert any(
        not float(x).is_integer()
        for p in ricci.points
        for x in (p.birth, p.death)
    )
    # the loop count is a property of the subgraph, not the filter
    sub = enclosing_subgraph(weighted, u, v, 1, drop_target_edge=True)
    from homolink.fast_ph import fast_extended_diagram

    for use_weights in (False, True):
        ford = build_filtration(sub.graph, distance_sum_filter(sub, use_weights))
        d = fast_extended_diagram(ford, keep_zero=True)
        assert len(d.in_dimension(1)) == sub.graph.num_edges - sub.graph.n + 1


def test_pair_table_empty_for_fewer_than_two_nodes():
    for n in (0, 1):
        assert pair_image_table(Graph(n, []), 1, "hop", SPEC).shape == (0, SPEC.dim)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    p=st.floats(0.2, 0.9),
    k=st.integers(1, 3),
    metric=st.sampled_from(["hop", "ricci"]),
)
def test_pair_table_rows_match_pair_diagram(seed, n, p, k, metric):
    g = shuffled_graph(np.random.default_rng(seed), n, p, weighted=True)
    table = pair_image_table(g, k, metric, SPEC)
    assert table.shape == (n * (n - 1) // 2, SPEC.dim)
    for row, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        diagram, _size = pair_diagram(g, u, v, k, metric)
        assert np.array_equal(table[row], persistence_image(diagram, SPEC))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), p=st.floats(0.2, 0.9))
def test_hop_k1_diagram_empty_once_target_edge_dropped(seed, n, p):
    # without (u, v), every node of the 1-hop intersection is at hop distance
    # 1 from both targets or is a target itself, so the filter is constant
    g = shuffled_graph(np.random.default_rng(seed), n, p, weighted=True)
    for u, v in itertools.combinations(range(n), 2):
        assert len(pair_diagram(g, u, v, 1, "hop")[0]) == 0
        if g.has_edge(u, v) and set(g.neighbors(u)) & set(g.neighbors(v)):
            kept = pair_diagram(g, u, v, 1, "hop", drop_target_edge=False)[0]
            assert len(kept) > 0


def test_pair_table_row_symmetric_in_targets():
    g = sbm_generate(30, 3, 0.4, 0.05, 0, seed=40)
    table = pair_image_table(g, 1, "hop", SPEC)
    u, v = g.edges[0]
    assert pair_rows(u, v, g.n) == pair_rows(v, u, g.n)
    image = persistence_image(pair_diagram(g, v, u, 1)[0], SPEC)
    assert np.array_equal(table[pair_rows(v, u, g.n)], image)


def test_pair_table_reuses_known_diagrams(monkeypatch):
    g = sbm_generate(20, 2, 0.5, 0.1, 0, seed=41)
    fresh = pair_image_table(g, 1, "hop", SPEC)
    known = [((u, v), pair_diagram(g, u, v, 1)[0]) for u, v in g.edges[:6]]
    calls = []

    def counting(g, u, v, *args):
        calls.append((u, v))
        return pair_diagram(g, u, v, *args)

    monkeypatch.setattr(pipeline, "pair_diagram", counting)
    table = pair_image_table(g, 1, "hop", SPEC, known=known)
    assert np.array_equal(table, fresh)
    assert sorted(calls + [pair for pair, _ in known]) == list(itertools.combinations(range(20), 2))


def test_pair_table_rejects_unknown_metric():
    with pytest.raises(ValueError):
        pair_image_table(Graph(1, []), 1, "euclidean", SPEC)
