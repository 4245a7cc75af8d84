import numpy as np
import pytest

from homolink.filtration import build_filtration, distance_sum_filter
from homolink.graphs import Graph, enclosing_subgraph, sbm_generate
from homolink.images import ImageSpec
from homolink.pipeline import (
    CachedImageProvider,
    ZeroImageProvider,
    apply_ricci_weights,
    batch_features,
    pair_diagram,
    pair_feature,
)
from homolink.reduction import diagram_via_reduction

SPEC = ImageSpec(resolution=(5, 5), sigma=0.4, bounds=(-0.5, 8.0, -0.5, 8.0))


def test_disjoint_neighborhoods_give_zero_image():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    feat = pair_feature(g, 0, 4, 1, spec=SPEC)
    assert len(feat.diagram) == 0
    assert (feat.image == 0).all()
    assert feat.metadata["subgraph_size"] == 2


def test_pair_feature_matches_reduction_oracle():
    g = sbm_generate(80, 4, 0.3, 0.03, 0, seed=12)
    for u, v in g.edges[:8]:
        feat = pair_feature(g, u, v, 1, spec=SPEC)
        sub = enclosing_subgraph(g, u, v, 1, drop_target_edge=True)
        if sub.graph.n <= 2 and sub.graph.num_edges == 0:
            assert len(feat.diagram) == 0
            continue
        ford = build_filtration(sub.graph, distance_sum_filter(sub))
        oracle = diagram_via_reduction(ford)
        assert feat.diagram.as_multiset() == oracle.as_multiset()


def test_pair_feature_symmetric_in_targets():
    g = sbm_generate(50, 5, 0.35, 0.05, 0, seed=21)
    u, v = g.edges[0]
    a = pair_feature(g, u, v, 1, spec=SPEC)
    b = pair_feature(g, v, u, 1, spec=SPEC)
    assert a.diagram.as_multiset() == b.diagram.as_multiset()
    assert np.array_equal(a.image, b.image)


def test_pair_feature_rejects_unknown_metric():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        pair_feature(g, 0, 2, 1, metric="euclidean", spec=SPEC)


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


def test_batch_empty():
    g = Graph(3, [(0, 1)])
    assert batch_features(g, [], 1, spec=SPEC) == []


def test_batch_matches_single_calls():
    g = sbm_generate(40, 4, 0.4, 0.05, 0, seed=31)
    pairs = g.edges[:10]
    batch = batch_features(g, pairs, 1, spec=SPEC)
    assert [f.pair for f in batch] == list(pairs)
    for feat, (u, v) in zip(batch, pairs):
        single = pair_feature(g, u, v, 1, spec=SPEC)
        assert np.array_equal(feat.image, single.image)


def test_batch_workers_do_not_change_output():
    g = sbm_generate(40, 4, 0.4, 0.05, 0, seed=32)
    pairs = g.edges[:16]
    serial = batch_features(g, pairs, 1, spec=SPEC, workers=1)
    parallel = batch_features(g, pairs, 1, spec=SPEC, workers=8)
    assert [f.pair for f in parallel] == [f.pair for f in serial]
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.image, b.image)
        assert a.diagram.as_multiset() == b.diagram.as_multiset()


def test_cached_provider_consistent_and_symmetric():
    g = sbm_generate(30, 3, 0.4, 0.05, 0, seed=40)
    provider = CachedImageProvider(g, 1, "hop", SPEC)
    u, v = g.edges[0]
    first = provider(u, v)
    assert np.array_equal(provider(v, u), first)
    direct = pair_feature(g, u, v, 1, spec=SPEC)
    assert np.array_equal(first, direct.image)


def test_zero_provider_dimension():
    provider = ZeroImageProvider(25)
    assert provider(0, 1).shape == (25,)
    assert (provider(3, 4) == 0).all()
