"""File formats: edge lists, feature matrices, diagrams, curvatures, metrics, manifests.

Edge list: one edge per line, ``u v [weight]``, whitespace-separated.
Feature matrix: CSV, one row per node. All writers format floats with
``repr`` so seeded runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .diagrams import PersistenceDiagram
from .graphs import Graph, canonical_edge


def write_edge_list(g: Graph, path: str) -> None:
    with open(path, "w") as fh:
        for u, v in g.edges:
            w = g.edge_weights.get((u, v))
            if w is None:
                fh.write(f"{u} {v}\n")
            else:
                fh.write(f"{u} {v} {w!r}\n")


def read_edge_list(path: str, n: int | None = None) -> Graph:
    edges = []
    weights = {}
    first_line = {}
    max_node = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 'u v [weight]', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: node ids must be integers") from exc
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: node ids must be nonnegative")
            if n is not None and max(u, v) >= n:
                raise ValueError(f"{path}:{lineno}: node id {max(u, v)} out of range for n={n}")
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop at node {u}")
            e = canonical_edge(u, v)
            if e in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate edge {e}, first on line {first_line[e]}"
                )
            first_line[e] = lineno
            edges.append(e)
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: weight must be a number") from exc
                if not (w > 0 and math.isfinite(w)):
                    raise ValueError(f"{path}:{lineno}: weight {w} is not positive and finite")
                weights[e] = w
            max_node = max(max_node, u, v)
    count = max_node + 1 if n is None else n
    return Graph(count, edges, weights)


def write_features_csv(X: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        for row in np.asarray(X, dtype=float):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_features_csv(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: feature values must be numbers") from exc
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty feature matrix")
    return np.array(rows)


def load_graph(
    edges_path: str, features_path: str | None = None, n: int | None = None
) -> Graph:
    """Edge list plus optional feature CSV; node count comes from whichever is larger."""
    features = read_features_csv(features_path) if features_path else None
    g = read_edge_list(edges_path, n=n)
    if features is not None:
        count = max(g.n, features.shape[0], n or 0)
        g = Graph(count, g.edges, g.edge_weights, features)
    return g


def write_diagram_json(diagram: PersistenceDiagram, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(diagram.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir: str, manifest: dict) -> None:
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_curvatures(kappa: dict, path: str) -> None:
    with open(path, "w") as fh:
        for (u, v) in sorted(kappa):
            fh.write(f"{u} {v} {float(kappa[(u, v)])!r}\n")


def write_metrics_csv(history, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_auc\n")
        for epoch, loss, auc in history:
            fh.write(f"{epoch},{float(loss)!r},{float(auc)!r}\n")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
