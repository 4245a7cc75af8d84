"""Extended persistence on graphs and topological pairwise features for link prediction.

Two independent computations of the extended persistence diagram of a
filtered graph (boundary-matrix reduction and a faster union-find /
spanning-tree algorithm), distance-sum filtrations over enclosing subgraphs,
Ollivier-Ricci edge weights, persistence images, and a desk-scale GCN link
predictor that consumes them.

The package exports the diagram types, the per-pair feature pipeline, the
experiment entry points and the oracles the acceptance criteria call.
Internals, such as filtration orders, union-find passes, the reduction's
stages, training configuration and curvature, are imported from their
modules (``homolink.model.TrainConfig``, ``homolink.ricci.ollivier_ricci``).
"""

from .diagrams import (
    ESSENTIAL_0,
    EXTENDED_1,
    ORDINARY_ASCENDING,
    RELATIVE_DESCENDING,
    DiagramPoint,
    PersistenceDiagram,
)
from .experiment import run_link_prediction
from .fast_ph import bench_compare, fast_extended_diagram
from .filtration import build_filtration, distance_sum_filter
from .graphs import Graph, enclosing_subgraph, pair_rows, sbm_generate
from .images import ImageSpec, persistence_image
from .model import init_model, loss_and_gradients, make_split
from .pipeline import apply_ricci_weights, pair_diagram, pair_image_table
from .reduction import diagram_via_reduction
from .ricci import DiscreteMeasure, wasserstein1

__version__ = "0.1.0"
