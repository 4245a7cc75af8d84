"""End-to-end link-prediction experiment on a single graph.

Wires the pieces together: split the edges, drop the held-out positives from
the message-passing graph, fit the image grid to the training-positive
diagrams, featurize every node pair once into one image table, then train the
topology-augmented predictor. The topology-ablated variant trains the
identical model on a zero table, so paired seed comparisons isolate the
contribution of the persistence features; it computes no curvature and no
diagrams, since nothing would read them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .graphs import Graph, pair_count
from .images import ImageSpec, spec_for_diagrams
from .model import DataSplit, TrainConfig, TrainResult, make_split, train
from .pipeline import METRICS, metric_graph, pair_diagram, pair_image_table

logger = logging.getLogger(__name__)

DEFAULT_RICCI_ALPHA = 0.5
# hop at k=1 gives every pair an empty diagram (the filter is constant once
# the target edge is dropped), so its topology run is the ablated one
DEFAULT_METRIC = "ricci"


@dataclass
class ExperimentResult:
    """Training outcome, the split it used and the image grid.

    ``image_spec`` is the grid fitted to the training-positive diagrams. The
    ablated run computes no diagrams, so its ``image_spec`` is the unfitted
    grid ``ImageSpec(resolution=resolution)``; only its ``dim`` reaches
    training.
    """

    train_result: TrainResult
    split: DataSplit
    image_spec: ImageSpec

    @property
    def report(self) -> dict:
        return {
            "test_auc": self.train_result.test_auc,
            "best_epoch": self.train_result.best_epoch,
            "seed": self.train_result.seed,
        }


def run_link_prediction(
    g: Graph,
    k: int = 1,
    metric: str = DEFAULT_METRIC,
    config: TrainConfig | None = None,
    resolution: tuple[int, int] = (5, 5),
    ablate_topology: bool = False,
    ricci_alpha: float = DEFAULT_RICCI_ALPHA,
) -> ExperimentResult:
    """Split, featurize, and train on one graph; deterministic per config seed.

    The topology run computes each pair's diagram once: the training
    positives' diagrams fit the image grid and then fill their own rows of
    the table from ``pair_image_table``, which computes the rest. The
    ablated run passes ``train`` a zero table of the same shape.
    """
    if g.node_features is None:
        raise ValueError("graph must carry node features")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    config = config or TrainConfig()
    split = make_split(g, seed=config.seed)
    train_graph = g.without_edges(split.val_pos + split.test_pos)

    if ablate_topology:
        image_spec = ImageSpec(resolution=resolution)
        images = np.zeros((pair_count(g.n), image_spec.dim))
    else:
        feature_graph = metric_graph(train_graph, metric, ricci_alpha)
        train_diagrams = [
            pair_diagram(feature_graph, u, v, k, metric)[0] for u, v in split.train_pos
        ]
        if not any(train_diagrams):
            logger.warning(
                "every training-positive diagram is empty at k=%d, metric=%s, so the "
                "image grid is fitted to no point; try k=2 or metric='ricci'",
                k,
                metric,
            )
        image_spec = spec_for_diagrams(train_diagrams, resolution=resolution)
        images = pair_image_table(
            feature_graph, k, metric, image_spec, known=zip(split.train_pos, train_diagrams)
        )

    config = replace(config, image_dim=image_spec.dim)
    result = train(train_graph, g.node_features, split, images, config)
    return ExperimentResult(result, split, image_spec)
