"""Link predictor: two-layer GCN, topology-augmented Fermi-Dirac decoder, training loop.

The decoder concatenates the squared embedding difference of a node pair with
the pair's persistence image, maps it through a two-layer MLP to a scalar
"distance", and converts that to an edge probability via
prob = 1 / (exp(dist - 2) + 1). Everything is plain numpy with hand-written
backpropagation; gradients are exact and checked against finite differences
in the test suite. Persistence images are constants: no gradient flows into
them.

Training keeps one batch buffer for the node pairs and one for the decoder
input; the training positives' part of each is written once, the sampled
negatives' part every epoch. The validation pass after each Adam step runs
the GCN forward pass at the updated parameters, which is exactly the forward
pass of the next training step, so that step reuses it instead of running it
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, canonical_edge, pair_count, pair_rows

LEAKY_SLOPE = 0.2
PROB_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# rows per partial product of the batch-long gradient sum
GRAD_CHUNK = 512

PARAM_KEYS = ("w1", "w2", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")


@dataclass
class ModelState:
    """Parameters plus Adam moments for the GCN and decoder MLP."""

    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int = 0

    def copy(self) -> "ModelState":
        return ModelState(
            {k: v.copy() for k, v in self.params.items()},
            {k: v.copy() for k, v in self.adam_m.items()},
            {k: v.copy() for k, v in self.adam_v.items()},
            self.step,
        )


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(
    d_in: int,
    image_dim: int,
    hidden: int = 100,
    embed: int = 16,
    mlp_hidden: int = 64,
    seed: int | np.random.Generator = 0,
) -> ModelState:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dec_in = embed + image_dim
    params = {
        "w1": _glorot(rng, d_in, hidden),
        "w2": _glorot(rng, hidden, embed),
        "mlp_w1": _glorot(rng, dec_in, mlp_hidden),
        "mlp_b1": np.zeros(mlp_hidden),
        "mlp_w2": _glorot(rng, mlp_hidden, 1),
        "mlp_b2": np.zeros(1),
    }
    zeros = lambda: {k: np.zeros_like(v) for k, v in params.items()}
    return ModelState(params, zeros(), zeros())


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Symmetric degree-normalized adjacency with self-loops, dense (n, n)."""
    A = np.eye(g.n)
    for u, v in g.edges:
        A[u, v] = 1.0
        A[v, u] = 1.0
    d = A.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return A * inv_sqrt[:, None] * inv_sqrt[None, :]


def _gcn_intermediates(S: np.ndarray, P1: np.ndarray, params: dict):
    """Two-layer GCN forward pass from the propagated features ``P1 = S @ X``.

    H1 = relu(S X W1) and H2 = S H1 W2, with S the normalized adjacency; the
    activation sits on the hidden layer only. ``P1`` does not change in
    training, so callers compute it once.
    """
    Z1 = P1 @ params["w1"]
    H1 = np.maximum(Z1, 0.0)
    P2 = S @ H1
    H2 = P2 @ params["w2"]
    return Z1, H1, P2, H2


def _decode_pairs(H2: np.ndarray, pairs: np.ndarray, F: np.ndarray, params: dict):
    """Edge probabilities of the node pairs ``pairs[0][i], pairs[1][i]`` from embeddings ``H2``.

    ``F`` is the ``(len(pairs[0]), embed + image_dim)`` decoder input whose
    image columns the caller has filled; its embedding columns are written
    here. Returns the probabilities, the embedding differences, and the
    leaky-ReLU slope and activation of the hidden layer.
    """
    diff = H2[pairs[0]] - H2[pairs[1]]
    np.square(diff, out=F[:, : H2.shape[1]])
    Z1 = F @ params["mlp_w1"] + params["mlp_b1"]
    slope = np.where(Z1 > 0, 1.0, LEAKY_SLOPE)
    A1 = Z1 * slope
    dist = (A1 @ params["mlp_w2"] + params["mlp_b2"]).ravel()
    prob = 1.0 / (np.exp(dist - 2.0) + 1.0)
    return prob, diff, slope, A1


def _decoder_input(pairs: np.ndarray, image_rows: np.ndarray, embed: int) -> np.ndarray:
    """Decoder input buffer for ``pairs``, with the image columns filled."""
    F = np.empty((pairs.shape[1], embed + image_rows.shape[1]))
    F[:, embed:] = image_rows
    return F


def _loss_and_grads(S, P1, pairs, labels, F, params, forward=None):
    """Loss and gradients of one batch.

    ``pairs`` is a ``(2, B)`` index array and ``F`` the batch's decoder input
    (see ``_decode_pairs``). ``forward`` is the GCN forward pass at
    ``params``, if the caller already ran it.
    """
    B = len(labels)
    Z1g, H1, P2, H2 = forward if forward is not None else _gcn_intermediates(S, P1, params)
    embed = H2.shape[1]
    prob, diff, slope, A1 = _decode_pairs(H2, pairs, F, params)
    p_hat = np.clip(prob, PROB_EPS, 1.0 - PROB_EPS)
    loss = -np.mean(labels * np.log(p_hat) + (1.0 - labels) * np.log(1.0 - p_hat))

    inside = (prob > PROB_EPS) & (prob < 1.0 - PROB_EPS)
    d_dist = np.where(inside, (labels - prob) / B, 0.0)

    grads = {}
    grads["mlp_b2"] = np.array([d_dist.sum()])
    grads["mlp_w2"] = A1.T @ d_dist[:, None]
    dZ1 = np.multiply.outer(d_dist, params["mlp_w2"][:, 0]) * slope
    # summed over fixed row chunks in order: BLAS splits one long inner
    # dimension by its thread count, which would make the bits depend on it
    grads["mlp_w1"] = sum(
        F[i : i + GRAD_CHUNK].T @ dZ1[i : i + GRAD_CHUNK] for i in range(0, B, GRAD_CHUNK)
    )
    grads["mlp_b1"] = dZ1.sum(axis=0)
    # only the embedding columns of dF reach a parameter
    dHu = (dZ1 @ params["mlp_w1"][:embed].T) * 2.0 * diff

    # scatter +dHu onto the u rows and -dHu onto the v rows; bincount adds
    # each bin's terms from 0.0 in input order, as two np.add.at calls would
    bins = (pairs.reshape(-1, 1) * embed + np.arange(embed)).ravel()
    weights = np.concatenate([dHu, -dHu]).ravel()
    dH2 = np.bincount(bins, weights=weights, minlength=H2.size).reshape(H2.shape)

    grads["w2"] = P2.T @ dH2
    dP2 = dH2 @ params["w2"].T
    dH1 = S.T @ dP2
    dZ1g = dH1 * (Z1g > 0)
    grads["w1"] = P1.T @ dZ1g
    return float(loss), grads


def loss_and_gradients(batch, g: Graph, X: np.ndarray, state: ModelState):
    """Mean binary cross-entropy over the batch and exact gradients for all parameters.

    ``batch`` is a sequence of (u, v, label, image vector) tuples with node
    ids in ``[0, g.n)`` and labels in {0, 1}. Probabilities are clamped away
    from 0 and 1 before the log.
    """
    pairs = np.array([[b[0] for b in batch], [b[1] for b in batch]], dtype=int)
    labels = np.array([b[2] for b in batch], dtype=float)
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    if pairs.min() < 0 or pairs.max() >= g.n:
        raise ValueError(f"node ids must lie in [0, {g.n})")
    PI = np.vstack([np.asarray(b[3], dtype=float) for b in batch])
    F = _decoder_input(pairs, PI, state.params["w2"].shape[1])
    S = normalized_adjacency(g)
    P1 = S @ np.asarray(X, dtype=float)
    return _loss_and_grads(S, P1, pairs, labels, F, state.params)


def adam_step(state: ModelState, grads: dict, lr: float, weight_decay: float = 0.0) -> None:
    """One Adam update with bias correction, in place."""
    state.step += 1
    t = state.step
    for key in PARAM_KEYS:
        g = grads[key]
        if weight_decay:
            g = g + weight_decay * state.params[key]
        m = state.adam_m[key]
        v = state.adam_v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        state.params[key] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class DataSplit:
    """Edge split for link prediction; negatives are non-edges of the full graph."""

    train_pos: list[tuple[int, int]]
    val_pos: list[tuple[int, int]]
    test_pos: list[tuple[int, int]]
    val_neg: list[tuple[int, int]]
    test_neg: list[tuple[int, int]]
    seed: int


def make_split(
    g: Graph, ratios: tuple[float, float, float] = (0.85, 0.05, 0.10), seed: int = 0
) -> DataSplit:
    """Random 85/5/10 edge split with matching negative samples for val and test."""
    if abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) <= 0:
        raise ValueError("ratios must be positive and sum to 1")
    m = g.num_edges
    if m < 20:
        raise ValueError(f"need at least 20 edges to split, got {m}")
    max_pairs = g.n * (g.n - 1) // 2
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    n_val = int(m * ratios[1])
    n_test = int(m * ratios[2])
    edges = [g.edges[i] for i in perm]
    val_pos = edges[:n_val]
    test_pos = edges[n_val : n_val + n_test]
    train_pos = edges[n_val + n_test :]

    needed = n_val + n_test
    if max_pairs - m < needed:
        raise ValueError("graph too dense to sample enough negative pairs")
    negatives: list[tuple[int, int]] = []
    chosen: set[tuple[int, int]] = set()
    while len(negatives) < needed:
        u = int(rng.integers(g.n))
        v = int(rng.integers(g.n))
        if u == v:
            continue
        e = canonical_edge(u, v)
        if e in chosen or g.has_edge(*e):
            continue
        chosen.add(e)
        negatives.append(e)
    return DataSplit(train_pos, val_pos, test_pos, negatives[:n_val], negatives[n_val:], seed)


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve, computed as the Mann-Whitney statistic.

    Equals P(score+ > score-) + P(tie)/2 over positive/negative pairs; ties
    get average ranks.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and equally long")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = (upper - counts + 1 + upper) / 2.0
    ranks = avg_rank[inverse]
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class TrainConfig:
    epochs: int = 2000
    lr: float = 0.01
    weight_decay: float = 0.0
    patience: int = 200
    seed: int = 0
    hidden: int = 100
    embed: int = 16
    mlp_hidden: int = 64
    image_dim: int = 25


@dataclass
class TrainResult:
    state: ModelState
    history: list[tuple[int, float, float]] = field(default_factory=list)
    test_auc: float = 0.0
    best_epoch: int = 0
    seed: int = 0


def _pair_arrays(pairs) -> np.ndarray:
    """The ``(2, m)`` node indices of a list of m pairs."""
    return np.array(pairs, dtype=int).reshape(-1, 2).T


def _eval_auc(S, P1, params, pairs, labels, F):
    """ROC-AUC of the labelled pairs, and the GCN forward pass it ran at ``params``."""
    forward = _gcn_intermediates(S, P1, params)
    prob = _decode_pairs(forward[-1], pairs, F, params)[0]
    return roc_auc(prob, labels), forward


def _labelled(g: Graph, images: np.ndarray, pos, neg, embed: int):
    """Node indices, 0/1 labels and decoder input of positives followed by negatives."""
    pairs = _pair_arrays(pos + neg)
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    return pairs, labels, _decoder_input(pairs, images[pair_rows(*pairs, g.n)], embed)


def train(
    g: Graph,
    X: np.ndarray,
    split: DataSplit,
    images: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Train the link predictor with per-epoch negative sampling and early stopping.

    ``g`` must already exclude the validation and test positive edges from
    message passing. ``images`` holds one persistence image per unordered
    node pair: shape ``(n(n-1)/2, config.image_dim)``, with the pair {u, v}
    in row ``pair_rows(u, v, n)``. Each epoch draws fresh training
    negatives, equal in number to the training positives, from the
    non-edges of the full graph (excluding the held-out negative samples).
    The state with the best validation ROC-AUC is returned, with the test
    ROC-AUC evaluated there. Runs are bit-deterministic for a fixed seed.
    """
    X = np.asarray(X, dtype=float)
    images = np.asarray(images, dtype=float)
    shape = (pair_count(g.n), config.image_dim)
    if images.shape != shape:
        raise ValueError(f"images must be a {shape} table, got {images.shape}")
    rng = np.random.default_rng(config.seed)
    state = init_model(
        X.shape[1],
        config.image_dim,
        hidden=config.hidden,
        embed=config.embed,
        mlp_hidden=config.mlp_hidden,
        seed=rng,
    )
    S = normalized_adjacency(g)
    P1 = S @ X

    # the negative pool: every pair that is neither a positive nor a held-out
    # negative, in upper-triangle order
    seen = split.train_pos + split.val_pos + split.test_pos + split.val_neg + split.test_neg
    keep = np.ones(shape[0], dtype=bool)
    keep[pair_rows(*_pair_arrays(seen), g.n)] = False
    pool = np.vstack(np.triu_indices(g.n, k=1))[:, keep]
    pool_rows = np.flatnonzero(keep)
    n_train = len(split.train_pos)
    if n_train == 0 or pool.shape[1] < n_train:
        raise ValueError("not enough non-edges to sample training negatives")

    # the batch is the training positives, then as many sampled negatives:
    # the positives' node pairs and image rows are written once, the
    # negatives' every epoch
    pairs = np.empty((2, 2 * n_train), dtype=int)
    pairs[:, :n_train] = _pair_arrays(split.train_pos)
    F = np.empty((2 * n_train, config.embed + config.image_dim))
    F[:n_train, config.embed :] = images[pair_rows(*pairs[:, :n_train], g.n)]
    val = _labelled(g, images, split.val_pos, split.val_neg, config.embed)
    test = _labelled(g, images, split.test_pos, split.test_neg, config.embed)

    best_auc = -np.inf
    best_epoch = 0
    best_state = state.copy()
    history: list[tuple[int, float, float]] = []
    labels = np.concatenate([np.ones(n_train), np.zeros(n_train)])

    # the validation pass after each Adam step runs the forward pass that the
    # next training step needs
    forward = _gcn_intermediates(S, P1, state.params)
    for epoch in range(config.epochs):
        neg_idx = rng.choice(pool.shape[1], size=n_train, replace=False)
        pairs[:, n_train:] = pool[:, neg_idx]
        F[n_train:, config.embed :] = images[pool_rows[neg_idx]]
        loss, grads = _loss_and_grads(S, P1, pairs, labels, F, state.params, forward)
        adam_step(state, grads, config.lr, config.weight_decay)
        val_auc, forward = _eval_auc(S, P1, state.params, *val)
        history.append((epoch, loss, val_auc))
        if val_auc > best_auc:
            best_auc = val_auc
            best_epoch = epoch
            best_state = state.copy()
        elif epoch - best_epoch >= config.patience:
            break

    test_auc = _eval_auc(S, P1, best_state.params, *test)[0]
    return TrainResult(best_state, history, test_auc, best_epoch, config.seed)
