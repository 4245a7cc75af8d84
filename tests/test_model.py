import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homolink import model
from homolink.graphs import Graph, pair_count, pair_rows, sbm_generate
from homolink.model import (
    TrainConfig,
    _decode_pairs,
    _decoder_input,
    _gcn_intermediates,
    _loss_and_grads,
    adam_step,
    init_model,
    loss_and_gradients,
    make_split,
    normalized_adjacency,
    roc_auc,
    train,
)
from oracles import dense_loss_and_grads, gcn_dense_oracle, pairwise_auc, random_graph


def small_state(d_in, image_dim, seed=0):
    return init_model(d_in, image_dim, hidden=7, embed=4, mlp_hidden=5, seed=seed)


def gcn_forward(g, X, state):
    """Node embeddings through the training code's GCN forward pass."""
    S = normalized_adjacency(g)
    return _gcn_intermediates(S, S @ X, state.params)[-1]


def decode(h_u, h_v, pi, state):
    """Edge probability of one pair through the training code's decoder."""
    pairs = np.array([[0], [1]])
    F = _decoder_input(pairs, np.atleast_2d(pi), len(h_u))
    return float(_decode_pairs(np.vstack([h_u, h_v]), pairs, F, state.params)[0][0])


def test_gcn_edgeless_graph_is_nodewise():
    g = Graph(3, [])
    X = np.eye(3)
    state = small_state(3, 2, seed=1)
    H = gcn_forward(g, X, state)
    # with no edges, S = I: row i depends only on x_i
    w1, w2 = state.params["w1"], state.params["w2"]
    want = np.maximum(X @ w1, 0.0) @ w2
    assert np.allclose(H, want)


def test_gcn_identical_isolated_nodes_share_embeddings():
    g = Graph(2, [])
    X = np.array([[0.3, -1.2], [0.3, -1.2]])
    H = gcn_forward(g, X, small_state(2, 2, seed=2))
    assert np.allclose(H[0], H[1])


@pytest.mark.parametrize("seed", range(5))
def test_gcn_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 6, 0.5)
    X = rng.normal(size=(6, 3))
    state = small_state(3, 2, seed=seed)
    got = gcn_forward(g, X, state)
    want = gcn_dense_oracle(g, X, state.params["w1"], state.params["w2"])
    assert np.allclose(got, want, atol=1e-12)


def test_gcn_isolated_node_leaves_rest_unchanged():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 5, 0.6)
    X = rng.normal(size=(5, 3))
    state = small_state(3, 2, seed=4)
    H = gcn_forward(g, X, state)
    bigger = Graph(6, list(g.edges))
    Xb = np.vstack([X, rng.normal(size=(1, 3))])
    Hb = gcn_forward(bigger, Xb, state)
    assert np.allclose(Hb[:5], H)


def test_decode_midpoint_and_limits():
    state = small_state(3, 2, seed=3)
    h = np.zeros(4)
    pi = np.zeros(2)
    # force dist exactly: zero the MLP and set the output bias
    for key in ("mlp_w1", "mlp_w2"):
        state.params[key][:] = 0.0
    state.params["mlp_b2"][:] = 2.0
    assert decode(h, h, pi, state) == pytest.approx(0.5)
    state.params["mlp_b2"][:] = 40.0
    assert decode(h, h, pi, state) < 1e-15
    state.params["mlp_b2"][:] = -40.0
    assert decode(h, h, pi, state) == pytest.approx(1.0)


def test_decode_matches_closed_form():
    rng = np.random.default_rng(12)
    state = small_state(3, 6, seed=12)
    hu, hv = rng.normal(size=4), rng.normal(size=4)
    pi = rng.uniform(size=6)
    p = state.params
    feat = np.concatenate([(hu - hv) ** 2, pi])
    z1 = feat @ p["mlp_w1"] + p["mlp_b1"]
    a1 = np.where(z1 > 0, z1, 0.2 * z1)
    dist = float((a1 @ p["mlp_w2"] + p["mlp_b2"]).item())
    want = 1.0 / (np.exp(dist - 2.0) + 1.0)
    assert decode(hu, hv, pi, state) == pytest.approx(want, rel=1e-12)


def test_decode_symmetric_in_pair():
    rng = np.random.default_rng(15)
    state = small_state(2, 3, seed=5)
    hu, hv = rng.normal(size=4), rng.normal(size=4)
    pi = rng.uniform(size=3)
    assert decode(hu, hv, pi, state) == pytest.approx(decode(hv, hu, pi, state))


def test_decoder_monotone_in_distance():
    state = small_state(2, 2, seed=6)
    for key in ("mlp_w1", "mlp_w2"):
        state.params[key][:] = 0.0
    probs = []
    for dist in (-3.0, 0.0, 2.0, 5.0):
        state.params["mlp_b2"][:] = dist
        probs.append(decode(np.zeros(4), np.zeros(4), np.zeros(2), state))
    assert probs == sorted(probs, reverse=True)


def test_loss_perfect_prediction_is_tiny():
    g = Graph(2, [(0, 1)])
    X = np.eye(2)
    state = small_state(2, 2, seed=7)
    for key in ("mlp_w1", "mlp_w2"):
        state.params[key][:] = 0.0
    state.params["mlp_b2"][:] = -60.0  # prob -> 1
    loss, _ = loss_and_gradients([(0, 1, 1, np.zeros(2))], g, X, state)
    assert loss <= 1e-10


def test_loss_half_probability_is_log_two():
    g = Graph(2, [(0, 1)])
    X = np.eye(2)
    state = small_state(2, 2, seed=8)
    for key in ("mlp_w1", "mlp_w2"):
        state.params[key][:] = 0.0
    state.params["mlp_b2"][:] = 2.0  # dist = 2 -> prob = 0.5
    loss, _ = loss_and_gradients([(0, 1, 1, np.zeros(2))], g, X, state)
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)


def test_loss_rejects_bad_labels():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        loss_and_gradients([(0, 1, 2, np.zeros(2))], g, np.eye(2), small_state(2, 2))


@pytest.mark.parametrize("v", [-1, 2])
def test_loss_rejects_node_ids_out_of_range(v):
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="node ids"):
        loss_and_gradients([(0, v, 1, np.zeros(2))], g, np.eye(2), small_state(2, 2))


def gradcheck(state, batch, g, X, h=1e-5, rtol=1e-4):
    _, grads = loss_and_gradients(batch, g, X, state)
    worst = 0.0
    for key, tensor in state.params.items():
        flat = tensor.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_and_gradients(batch, g, X, state)
            flat[idx] = orig - h
            lm, _ = loss_and_gradients(batch, g, X, state)
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            analytic = grads[key].ravel()[idx]
            denom = max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(400 + seed)
    g = random_graph(rng, 6, 0.5)
    X = rng.normal(size=(6, 3))
    state = small_state(3, 4, seed=seed)
    batch = [
        (int(rng.integers(6)), int(rng.integers(6)), int(rng.integers(2)), rng.uniform(size=4))
        for _ in range(5)
    ]
    batch = [(u, v if v != u else (u + 1) % 6, y, pi) for u, v, y, pi in batch]
    assert gradcheck(state, batch, g, X) <= 1e-4


def assert_rel_close(got, want, rtol=1e-12):
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    distinct=st.integers(1, 5),
    batch=st.integers(1, 14),
    image_dim=st.integers(1, 3),
)
def test_step_matches_dense_reference(seed, n, distinct, batch, image_dim):
    # a batch drawn with replacement from a few pairs of a small graph, so
    # nodes and whole pairs repeat and the scatter must add every term
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, 0.5)
    X = rng.normal(size=(n, 3))
    params = small_state(3, image_dim, seed=rng).params
    base = rng.integers(n, size=(2, distinct))
    pairs = base[:, rng.integers(distinct, size=batch)]
    labels = rng.integers(0, 2, size=batch).astype(float)
    PI = rng.uniform(size=(batch, image_dim))
    S = normalized_adjacency(g)
    P1 = S @ X
    want_loss, want = dense_loss_and_grads(S, P1, pairs[0], pairs[1], labels, PI, params)
    embed = params["w2"].shape[1]
    for forward in (None, _gcn_intermediates(S, P1, params)):
        # the step must write the embedding columns itself
        F = np.full((batch, embed + image_dim), np.nan)
        F[:, embed:] = PI
        loss, grads = _loss_and_grads(S, P1, pairs, labels, F, params, forward)
        assert_rel_close(loss, want_loss)
        assert grads.keys() == want.keys()
        for key in want:
            assert_rel_close(grads[key], want[key])


def test_adam_zero_learning_rate_freezes_parameters():
    state = small_state(3, 2, seed=11)
    before = {k: v.copy() for k, v in state.params.items()}
    grads = {k: np.ones_like(v) for k, v in state.params.items()}
    for _ in range(5):
        adam_step(state, grads, lr=0.0)
    for key in before:
        assert np.array_equal(state.params[key], before[key])


def test_make_split_ratios_and_counts():
    g = sbm_generate(40, 2, 0.35, 0.2, 0, seed=2)
    # trim to exactly 100 edges for round numbers
    g = Graph(g.n, g.edges[:100])
    split = make_split(g, seed=3)
    assert len(split.val_pos) == 5
    assert len(split.test_pos) == 10
    assert len(split.train_pos) == 85
    assert len(split.val_neg) == 5 and len(split.test_neg) == 10


def test_make_split_deterministic_and_disjoint():
    g = sbm_generate(30, 2, 0.4, 0.2, 0, seed=4)
    s1 = make_split(g, seed=9)
    s2 = make_split(g, seed=9)
    assert s1.train_pos == s2.train_pos
    assert s1.val_neg == s2.val_neg and s1.test_neg == s2.test_neg
    pieces = [s1.train_pos, s1.val_pos, s1.test_pos]
    seen = set()
    for piece in pieces:
        for e in piece:
            assert e not in seen
            seen.add(e)
    for e in s1.val_neg + s1.test_neg:
        assert not g.has_edge(*e)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 20), split_seed=st.integers(0, 2**16))
def test_make_split_partitions_edges_and_samples_distinct_non_edges(seed, n, split_seed):
    g = random_graph(np.random.default_rng(seed), n, 0.45)
    assume(20 <= g.num_edges <= n * (n - 1) // 4)
    split = make_split(g, seed=split_seed)
    positives = split.train_pos + split.val_pos + split.test_pos
    assert sorted(positives) == sorted(g.edges)
    negatives = split.val_neg + split.test_neg
    assert len(set(negatives)) == len(negatives) == len(split.val_pos) + len(split.test_pos)
    assert all(u < v and not g.has_edge(u, v) for u, v in negatives)


def test_make_split_needs_enough_edges():
    g = Graph(10, [(0, i) for i in range(1, 10)])
    with pytest.raises(ValueError):
        make_split(g)


def test_roc_auc_perfect_and_ties():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_roc_auc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("seed", range(8))
def test_roc_auc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=20)
    labels = rng.integers(0, 2, size=20)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels))


def zero_table(g, dim):
    return np.zeros((pair_count(g.n), dim))


def make_training_setup(seed=0):
    g = sbm_generate(30, 2, 0.5, 0.1, 6, seed=seed)
    split = make_split(g, seed=seed)
    train_graph = g.without_edges(split.val_pos + split.test_pos)
    return g, train_graph, split


def test_train_zero_lr_keeps_initial_parameters():
    g, train_graph, split = make_training_setup(seed=1)
    config = TrainConfig(epochs=3, lr=0.0, patience=10, seed=1, hidden=8, embed=4, mlp_hidden=6, image_dim=4)
    result = train(train_graph, g.node_features, split, zero_table(train_graph, 4), config)
    fresh = init_model(6, 4, hidden=8, embed=4, mlp_hidden=6, seed=np.random.default_rng(1))
    for key in fresh.params:
        assert np.array_equal(result.state.params[key], fresh.params[key])


def test_train_separable_features_reach_perfect_auc():
    # features directly encode community membership and negatives are all
    # cross-community, so a separating surface exists
    rng = np.random.default_rng(6)
    g = sbm_generate(30, 2, 0.6, 0.0, 0, seed=6)
    X = np.zeros((30, 2))
    X[:15, 0] = 1.0
    X[15:, 1] = 1.0
    X += 0.01 * rng.normal(size=X.shape)
    g = Graph(g.n, g.edges, node_features=X)
    split = make_split(g, seed=6)
    train_graph = g.without_edges(split.val_pos + split.test_pos)
    config = TrainConfig(epochs=200, lr=0.01, patience=200, seed=6, hidden=16, embed=8, mlp_hidden=16, image_dim=3)
    result = train(train_graph, X, split, zero_table(train_graph, 3), config)
    # train-set AUC at the selected state: positives vs cross-community non-edges
    H = gcn_forward(train_graph, X, result.state)
    negs = [(u, 15 + v) for u in range(5) for v in range(5) if not g.has_edge(u, 15 + v)]
    scores = [decode(H[u], H[v], np.zeros(3), result.state) for u, v in split.train_pos + negs]
    labels = [1] * len(split.train_pos) + [0] * len(negs)
    assert roc_auc(scores, labels) == 1.0


def test_train_deterministic_history():
    g, train_graph, split = make_training_setup(seed=3)
    config = TrainConfig(epochs=5, lr=0.01, patience=10, seed=3, hidden=8, embed=4, mlp_hidden=6, image_dim=4)
    r1 = train(train_graph, g.node_features, split, zero_table(train_graph, 4), config)
    r2 = train(train_graph, g.node_features, split, zero_table(train_graph, 4), config)
    assert r1.history == r2.history
    assert r1.test_auc == r2.test_auc


def test_train_evaluates_once_per_epoch_and_once_at_test(monkeypatch):
    calls = []
    real = model.roc_auc
    monkeypatch.setattr(model, "roc_auc", lambda scores, labels: calls.append(1) or real(scores, labels))
    g, train_graph, split = make_training_setup(seed=3)
    for epochs, patience in [(6, 10), (200, 2)]:
        calls.clear()
        config = TrainConfig(epochs=epochs, patience=patience, seed=3, hidden=8, embed=4, mlp_hidden=6, image_dim=4)
        result = train(train_graph, g.node_features, split, zero_table(train_graph, 4), config)
        assert len(calls) == len(result.history) + 1


def test_train_rejects_table_of_wrong_shape():
    g, train_graph, split = make_training_setup(seed=3)
    config = TrainConfig(epochs=2, patience=10, seed=3, hidden=8, embed=4, mlp_hidden=6, image_dim=4)
    for shape in [(pair_count(g.n), 5), (pair_count(g.n) - 1, 4), (pair_count(g.n) * 4,)]:
        with pytest.raises(ValueError, match="table"):
            train(train_graph, g.node_features, split, np.zeros(shape), config)


def test_train_reads_each_pair_row():
    # features carry nothing; the image row of every edge is 1 and of every
    # non-edge 0, so only a correct row gather can separate the test pairs
    g, train_graph, split = make_training_setup(seed=4)
    X = np.ones((g.n, 3))
    images = zero_table(g, 1)
    images[pair_rows(*np.array(g.edges).T, g.n)] = 1.0
    config = TrainConfig(epochs=60, lr=0.05, patience=100, seed=4, hidden=8, embed=4, mlp_hidden=6, image_dim=1)
    result = train(train_graph, X, split, images, config)
    assert result.test_auc == 1.0
