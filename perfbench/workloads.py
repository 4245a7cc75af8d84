"""The three workloads: their inputs, their operations and the checks of their outputs.

A workload has ``kinds`` (the operation kinds of one round, the first one the
main path and the second the reference path it is compared with), ``items``
(the inputs every kind runs on, once each per round), ``run(kind, item)``
(one operation, timed by the caller), ``check(first)`` (failures of the first
round's outputs, computed apart from the program) and ``same(kind, a, b)``
(whether a later round repeated an output exactly). Both run outside the
timed spans.

The program is reached only through ``homolink`` attribute lookups at call
time, so a traced run sees every call.
"""

from __future__ import annotations

import os
import time

import numpy as np

import homolink as hl
import homolink.experiment as hexp
import homolink.io as hio
from homolink.model import TrainConfig

import checks

# The graph of the reference experiment (acceptance criterion 8).
REFERENCE_GRAPH = dict(n=250, communities=5, p=0.25, q=0.015, feature_dim=32, seed=42)
TINY_GRAPH = dict(n=60, communities=3, p=0.5, q=0.02, feature_dim=8, seed=42)
PAIR_SPEC = dict(resolution=(5, 5), sigma=0.3, bounds=(0.0, 6.0, 0.0, 3.0))


def sbm_edges(n, communities, p, q, feature_dim, seed):
    """Edges and features drawn exactly as ``homolink.sbm_generate`` draws them.

    Written out here so that the inputs do not move when the program changes.
    """
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(n, k=1)
    block = n // communities
    prob = np.where(ii // block == jj // block, p, q)
    mask = rng.random(len(ii)) < prob
    edges = list(zip(ii[mask].tolist(), jj[mask].tolist()))
    features = rng.random((n, feature_dim)) if feature_dim > 0 else None
    return edges, features


def load_sbm(workdir: str, params: dict):
    """Write the SBM graph as an edge list and a feature CSV, then load it through the program.

    Returns the loaded graph, the benchmark's own edge list and the load time.
    """
    edges, features = sbm_edges(**params)
    os.makedirs(workdir, exist_ok=True)
    edges_path = os.path.join(workdir, "edges.txt")
    features_path = os.path.join(workdir, "features.csv")
    with open(edges_path, "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in edges)
    with open(features_path, "w") as fh:
        fh.writelines(",".join(repr(float(x)) for x in row) + "\n" for row in features)
    t0 = time.perf_counter()
    g = hio.load_graph(edges_path, features_path)
    return g, edges, time.perf_counter() - t0


def _same_train(a, b) -> bool:
    return (
        a.test_auc == b.test_auc
        and a.best_epoch == b.best_epoch
        and a.history == b.history
        and a.state.params.keys() == b.state.params.keys()
        and all(np.array_equal(a.state.params[k], b.state.params[k]) for k in a.state.params)
    )


class Experiment:
    """The reference link-prediction run: topology variant, then the ablated variant."""

    kinds = ("topology", "ablated")
    # Every run replays the cheaper variant's ``train`` (~3 s against ~7 s);
    # the topology variant's determinism is checked wherever a run makes a
    # second round, as a traced run always does.
    replayed = ("ablated",)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        params = TINY_GRAPH if tiny else REFERENCE_GRAPH
        self.g, self.edges, self.load_s = load_sbm(workdir, params)
        self.items = [None]
        epochs, patience = (30, 10) if tiny else (300, 100)
        self.config = TrainConfig(epochs=epochs, patience=patience, seed=seed)
        self.seed = seed
        self.ricci_calls = []  # (graph, alpha, weights) seen by a traced run

    def warm_up(self) -> None:
        """Nothing: a user runs one experiment per process."""

    def run(self, kind, item):
        """The experiment, plus the arguments ``train`` received (for the determinism check)."""
        captured = {}
        train = getattr(hexp, "train", None)
        if train is not None:

            def capture(*args, **kwargs):
                captured["call"] = (args, kwargs)
                return train(*args, **kwargs)

            hexp.train = capture
        try:
            result = hl.run_link_prediction(
                self.g, k=1, metric="ricci", config=self.config, ablate_topology=(kind == "ablated")
            )
        finally:
            if train is not None:
                hexp.train = train
        return result, captured.get("call")

    def observe(self, name, args, out) -> None:
        if name == "ricci_edge_weights":
            alpha = args[1] if len(args) > 1 else 0.5
            self.ricci_calls.append((args[0], alpha, out))

    def aucs(self, first) -> dict:
        return {kind: out[0].report["test_auc"] for kind in self.kinds for out in first[kind] if not isinstance(out, Exception)}

    def check(self, first):
        failures = []
        for kind in self.kinds:
            out = first[kind][0]
            if isinstance(out, Exception):
                continue
            result, call = out
            msgs = checks.check_auc(result.report["test_auc"], kind)
            msgs += checks.check_split(self.edges, result.split)
            if kind in self.replayed and not _same_train(result.train_result, self._replay(kind, call)):
                msgs.append(f"{kind}: train is not deterministic for seed {self.seed}")
            failures += [(kind, 0, m) for m in msgs]
        rng = np.random.default_rng(self.seed)
        for graph, alpha, weights in self.ricci_calls:
            idx = rng.choice(graph.num_edges, size=min(64, graph.num_edges), replace=False)
            sample = [graph.edges[i] for i in sorted(idx)]
            failures += [("topology", 0, m) for m in checks.check_ricci(graph.n, list(graph.edges), weights, sample, alpha)]
        return failures

    def _replay(self, kind, call):
        """``train`` again on the arguments it received, or the whole variant if it was not seen."""
        if call is None:
            return self.run(kind, None)[0].train_result
        args, kwargs = call
        return hexp.train(*args, **kwargs)

    def same(self, kind, a, b) -> bool:
        return _same_train(a[0].train_result, b[0].train_result)


class Pairs:
    """k=2 hop pair features: pair_diagram + persistence_image, then the reduction path."""

    kinds = ("fast", "oracle")
    k = 2

    def __init__(self, seed: int, tiny: bool, workdir: str):
        params = TINY_GRAPH if tiny else REFERENCE_GRAPH
        self.g, self.edges, self.load_s = load_sbm(workdir, params)
        self.spec = hl.ImageSpec(**PAIR_SPEC)
        self.items = sample_pairs(params["n"], self.edges, 8 if tiny else 192, seed)

    def warm_up(self) -> None:
        for kind in self.kinds:
            self.run(kind, self.items[0])

    def run(self, kind, pair):
        u, v = pair
        if kind == "fast":
            diagram, size = hl.pair_diagram(self.g, u, v, self.k, "hop")
            return diagram, size, hl.persistence_image(diagram, self.spec)
        sub = hl.enclosing_subgraph(self.g, u, v, self.k, drop_target_edge=True)
        f = hl.distance_sum_filter(sub)
        diagram = hl.diagram_via_reduction(hl.build_filtration(sub.graph, f))
        return diagram, sub, f, hl.persistence_image(diagram, self.spec)

    def check(self, first):
        failures = []
        for i, (u, v) in enumerate(self.items):
            fast, oracle = first["fast"][i], first["oracle"][i]
            if isinstance(fast, Exception) or isinstance(oracle, Exception):
                continue
            msgs = check_pair(self.g.n, self.edges, u, v, self.k, self.spec.dim, fast, oracle)
            failures += [(kind, i, m) for m in msgs for kind in self.kinds]
        return failures

    def same(self, kind, a, b) -> bool:
        """Equal diagram, image, and subgraph size (fast) or filter (oracle)."""
        return (
            a[0].as_multiset() == b[0].as_multiset()
            and np.array_equal(a[-1], b[-1])
            and (np.array_equal(a[2], b[2]) if kind == "oracle" else a[1] == b[1])
        )


def sample_pairs(n: int, edges, count: int, seed: int):
    """Half distinct edges, half distinct non-edges, drawn from the seed."""
    rng = np.random.default_rng(seed)
    half = count // 2
    pairs = [edges[i] for i in rng.choice(len(edges), size=half, replace=False)]
    edge_set = set(edges)
    chosen = set()
    while len(chosen) < count - half:
        u, v = (int(x) for x in rng.integers(n, size=2))
        e = (min(u, v), max(u, v))
        if u != v and e not in edge_set and e not in chosen:
            chosen.add(e)
            pairs.append(e)
    return pairs


def check_pair(n, edges, u, v, k, dim, fast, oracle):
    """All checks of one pair's outputs from both paths."""
    diagram_f, size, image_f = fast
    diagram_r, sub, f, image_r = oracle
    msgs = checks.check_subgraph(n, edges, u, v, k, sub.node_map, sub.graph.edges)
    if size != len(sub.node_map):
        msgs.append(f"pair_diagram reports {size} subgraph nodes, the subgraph has {len(sub.node_map)}")
    sub_edges = list(sub.graph.edges)
    msgs += checks.check_filter(sub.graph.n, sub_edges, sub.targets, f)
    msgs += checks.check_diagram_pair(diagram_f, diagram_r)
    full = hl.fast_extended_diagram(hl.build_filtration(sub.graph, f), keep_zero=True)
    msgs += checks.check_diagram_counts(sub.graph.n, sub_edges, f, full, diagram_f)
    msgs += checks.check_image(image_f, dim) + checks.check_image(image_r, dim)
    if not np.array_equal(image_f, image_r):
        msgs.append("the two paths give different images for equal diagrams")
    return msgs


class Diagrams:
    """Whole-graph diagrams on the inputs of ``homolink bench``: fast, then the reduction."""

    kinds = ("fast", "oracle")

    def __init__(self, seed: int, tiny: bool, workdir: str):
        size, avg_degree, count = (40, 4.0, 2) if tiny else (300, 10.0, 10)
        # the draws of ``homolink bench --sizes <size> --avg-degree <d> --seed <seed>``
        rng = np.random.default_rng(seed)
        p = min(1.0, int(size * avg_degree / 2) / (size * (size - 1) / 2))
        self.items = []
        for _ in range(count):
            edges, _ = sbm_edges(size, 1, p, p, 0, int(rng.integers(2**31)))
            f = rng.permutation(size).astype(float)
            self.items.append((hl.Graph(size, edges), f, edges))
        self.load_s = 0.0

    def warm_up(self) -> None:
        for kind in self.kinds:
            self.run(kind, self.items[0])

    def run(self, kind, item):
        g, f, _ = item
        ford = hl.build_filtration(g, f)
        if kind == "fast":
            return hl.fast_extended_diagram(ford)
        return hl.diagram_via_reduction(ford)

    def check(self, first):
        failures = []
        for i, (g, f, edges) in enumerate(self.items):
            fast, oracle = first["fast"][i], first["oracle"][i]
            if isinstance(fast, Exception) or isinstance(oracle, Exception):
                continue
            full = hl.fast_extended_diagram(hl.build_filtration(g, f), keep_zero=True)
            msgs = checks.check_diagram_pair(fast, oracle)
            msgs += checks.check_diagram_counts(g.n, edges, f, full, fast)
            failures += [(kind, i, m) for m in msgs for kind in self.kinds]
        return failures

    def same(self, kind, a, b) -> bool:
        return a.as_multiset() == b.as_multiset()


WORKLOADS = {
    "experiment_sbm250_ricci": Experiment,
    "pairs_k2_hop": Pairs,
    "diagrams_rand300": Diagrams,
}
