"""In-memory span tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces each target function, wherever a ``homolink``
module holds a reference to it, with a wrapper that records one span
(name, start, end, parent, two observed values) per call. Replacing every
reference means a call is traced however the calling module looked the
function up (``homolink.experiment.train``, ``homolink.ricci.linprog``, ...).
A target that no longer exists is skipped and reported absent, so removing a
function from the program never breaks the benchmark, it only empties the
metrics that depend on it.

Spans live in flat arrays while the run lasts and are written out when it
ends. ``layer_metrics`` turns the spans of one round into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from array import array

import numpy as np

# (span name, layer, module that defines the object, attribute path)
TARGETS = [
    ("ricci_edge_weights", "ricci", "homolink.ricci", "ricci_edge_weights"),
    ("wasserstein1", "ricci", "homolink.ricci", "wasserstein1"),
    ("linprog", "ricci", "scipy.optimize", "linprog"),
    ("enclosing_subgraph", "graphs", "homolink.graphs", "enclosing_subgraph"),
    ("distance_sum_filter", "filtration", "homolink.filtration", "distance_sum_filter"),
    ("build_filtration", "filtration", "homolink.filtration", "build_filtration"),
    ("fast_extended_diagram", "fast_ph", "homolink.fast_ph", "fast_extended_diagram"),
    ("diagram_via_reduction", "reduction", "homolink.reduction", "diagram_via_reduction"),
    ("persistence_image", "images", "homolink.images", "persistence_image"),
    ("pair_diagram", "pipeline", "homolink.pipeline", "pair_diagram"),
    ("CachedImageProvider", "pipeline", "homolink.pipeline", "CachedImageProvider.__call__"),
    ("ZeroImageProvider", "pipeline", "homolink.pipeline", "ZeroImageProvider.__call__"),
    ("train", "model", "homolink.model", "train"),
    ("roc_auc", "model", "homolink.model", "roc_auc"),
    ("run_link_prediction", "experiment", "homolink.experiment", "run_link_prediction"),
]
PROVIDERS = ("CachedImageProvider", "ZeroImageProvider")

# What a span records besides its times: two numbers read off the call.
OBSERVE = {
    "enclosing_subgraph": lambda args, kwargs, out: (out.graph.n, out.graph.num_edges),
    "ricci_edge_weights": lambda args, kwargs, out: (len(out), 0.0),
    "fast_extended_diagram": lambda args, kwargs, out: (len(out), 0.0),
    "train": lambda args, kwargs, out: (len(out.history), 0.0),
}

# span name -> (count metric, own-time metric or None): the plain per-layer
# metrics, one pair per traced function.
COUNTED = {
    "ricci_edge_weights": ("ricci.calls", "ricci.busy_s"),
    "wasserstein1": ("ricci.transport_calls", "ricci.transport_s"),
    "linprog": ("ricci.lp_solves", "ricci.lp_s"),
    "enclosing_subgraph": ("graphs.extract_calls", "graphs.extract_s"),
    "distance_sum_filter": ("filtration.filter_calls", "filtration.filter_s"),
    "build_filtration": ("filtration.order_calls", "filtration.order_s"),
    "fast_extended_diagram": ("fast_ph.diagrams", "fast_ph.diagram_s"),
    "diagram_via_reduction": ("reduction.diagrams", "reduction.diagram_s"),
    "persistence_image": ("images.images", "images.image_s"),
    "pair_diagram": ("pipeline.pair_diagram_calls", "pipeline.pair_diagram_s"),
    "roc_auc": ("model.eval_calls", None),
}
# metric name -> (unit, span names it needs): the metrics computed by hand in
# ``layer_metrics`` from observed values, nesting or several spans.
DERIVED = {
    "ricci.edges": ("count", ["ricci_edge_weights"]),
    "graphs.subgraph_nodes_mean": ("count", ["enclosing_subgraph"]),
    "graphs.subgraph_edges_mean": ("count", ["enclosing_subgraph"]),
    "graphs.useful_extract_ratio": ("ratio", ["enclosing_subgraph"]),
    "fast_ph.points": ("count", ["fast_extended_diagram"]),
    "pipeline.provider_calls": ("count", list(PROVIDERS)),
    "pipeline.provider_hit_ratio": ("ratio", list(PROVIDERS) + ["pair_diagram"]),
    "model.train_s": ("s", ["train"]),
    "model.epochs": ("count", ["train"]),
    "model.epoch_s": ("s", ["train"]),
    "experiment.prepare_s": ("s", ["run_link_prediction", "train"]),
}
# metric name -> (unit, span names it needs), for every metric of ``layer_metrics``
PER_LAYER = {
    **{count: ("count", [span]) for span, (count, _s) in COUNTED.items()},
    **{seconds: ("s", [span]) for span, (_c, seconds) in COUNTED.items() if seconds},
    **DERIVED,
}
# The same metrics restricted to the topology-ablated experiment variant, which
# should do no topological work at all.
ABLATED = [
    "ricci.calls",
    "ricci.busy_s",
    "pipeline.pair_diagram_calls",
    "pipeline.pair_diagram_s",
    "model.train_s",
    "experiment.prepare_s",
]
ABLATED_ROOT = "op:ablated"


def _resolve(module_name: str, path: str):
    """(owner, attribute name, object) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    """Span recorder; one instance per traced run, installed around traced rounds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.clear()

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.val1 = array("d")
        self.val2 = array("d")

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.val1.append(0.0)
        self.val2.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span opened by the benchmark itself."""
        idx = self._open(self._name_id(name, layer))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, nid: int, hook):
        tracer = self
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                tracer.val1[idx], tracer.val2[idx] = observe(args, kwargs, out)
            if hook is not None:
                hook(name, args, out)
            return out

        return wrapper

    def install(self, hook=None) -> None:
        """Wrap every target; ``hook(name, args, out)`` sees each traced call's result."""
        self.absent = []
        modules = [m for k, m in sorted(sys.modules.items()) if k == "homolink" or k.startswith("homolink.")]
        for name, layer, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name, self._name_id(name, layer), hook)
            if "." in path:  # a method: patch the class attribute
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "val1": np.frombuffer(self.val1, dtype=np.float64).copy(),
            "val2": np.frombuffer(self.val2, dtype=np.float64).copy(),
        }


def layer_metrics(spans: dict, names: list[str], layers: list[str]) -> dict:
    """Per-layer metrics of one round's spans (see ``COUNTED`` and ``DERIVED``), plus the ablated subset.

    A layer's time is the time inside its spans minus the time spent in
    nested spans of other layers, so the times of different layers never
    overlap. Metrics whose target is absent read 0.
    """
    nid = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    codes = {layer: i for i, layer in enumerate(sorted(set(layers)))}
    layer_of = np.array([codes[layer] for layer in layers] or [0])[nid]
    has_parent = parent >= 0
    other = np.zeros(len(nid))
    cross = has_parent.copy()
    cross[has_parent] = layer_of[has_parent] != layer_of[parent[has_parent]]
    np.add.at(other, parent[cross], dur[cross])
    own = dur - other

    # root span (the benchmark's op span) of every span, by pointer jumping
    root = np.where(has_parent, parent, np.arange(len(nid)))
    while len(root) and not np.array_equal(root, root[root]):
        root = root[root]

    def ids(name):
        return names.index(name) if name in names else -1

    def subset(mask):
        def sel(name):
            return (nid == ids(name)) & mask

        out = {}
        for span, (count, seconds) in COUNTED.items():
            s = sel(span)
            out[count] = int(s.sum())
            if seconds:
                out[seconds] = float(own[s].sum())
        out["ricci.edges"] = float(spans["val1"][sel("ricci_edge_weights")].sum())
        ex = sel("enclosing_subgraph")
        n_ex = int(ex.sum())
        nodes, edges = spans["val1"][ex], spans["val2"][ex]
        out["graphs.subgraph_nodes_mean"] = float(nodes.mean()) if n_ex else 0.0
        out["graphs.subgraph_edges_mean"] = float(edges.mean()) if n_ex else 0.0
        useful = ~((nodes <= 2) & (edges == 0))
        out["graphs.useful_extract_ratio"] = float(useful.mean()) if n_ex else 0.0
        out["fast_ph.points"] = int(spans["val1"][sel("fast_extended_diagram")].sum())
        pd = sel("pair_diagram")
        prov = sel(PROVIDERS[0]) | sel(PROVIDERS[1])
        computed = np.zeros(len(nid), dtype=bool)
        computed[parent[pd & has_parent]] = True
        n_prov = int(prov.sum())
        out["pipeline.provider_calls"] = n_prov
        out["pipeline.provider_hit_ratio"] = float((prov & ~computed).sum() / n_prov) if n_prov else 0.0
        tr = sel("train")
        epochs = int(spans["val1"][tr].sum())
        out["model.train_s"] = float(dur[tr].sum())
        out["model.epochs"] = epochs
        out["model.epoch_s"] = float(own[tr].sum() / epochs) if epochs else 0.0
        rl = sel("run_link_prediction")
        train_in_rl = tr & has_parent
        train_in_rl[train_in_rl] = rl[parent[train_in_rl]]
        out["experiment.prepare_s"] = float(dur[rl].sum() - dur[train_in_rl].sum())
        return out

    metrics = subset(np.ones(len(nid), dtype=bool))
    ablated = subset(nid[root] == ids(ABLATED_ROOT))
    for key in ABLATED:
        metrics[f"ablated.{key}"] = ablated[key]
    return metrics


def absent_metrics(absent: list[str]) -> list[str]:
    gone = set(absent)
    out = [m for m, (_unit, needs) in PER_LAYER.items() if gone & set(needs)]
    return out + [f"ablated.{m}" for m in ABLATED if m in out]


def unit_of(metric: str) -> str:
    if metric.startswith("ablated."):
        metric = metric[len("ablated."):]
    return PER_LAYER[metric][0]


def write_trace(path_base: str, tracer: Tracer, rounds_spans: list[dict], summary: dict) -> None:
    """Spans of every traced round (compressed arrays) and the summary (JSON)."""
    os.makedirs(os.path.dirname(path_base), exist_ok=True)
    arrays = {}
    for r, spans in enumerate(rounds_spans):
        for key, value in spans.items():
            arrays[f"round{r}_{key}"] = value
    np.savez_compressed(path_base + ".npz", names=np.array(tracer.names), layers=np.array(tracer.layers), **arrays)
    with open(path_base + ".json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
