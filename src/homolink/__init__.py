"""Extended persistence on graphs and topological pairwise features for link prediction.

Two independent computations of the extended persistence diagram of a
filtered graph (boundary-matrix reduction and a faster union-find /
spanning-tree algorithm), distance-sum filtrations over enclosing subgraphs,
Ollivier-Ricci edge weights, persistence images, and a desk-scale GCN link
predictor that consumes them.
"""

from .diagrams import (
    ESSENTIAL_0,
    EXTENDED_1,
    ORDINARY_ASCENDING,
    RELATIVE_DESCENDING,
    DiagramPoint,
    PersistenceDiagram,
)
from .experiment import ExperimentResult, run_link_prediction
from .fast_ph import bench_compare, fast_extended_diagram, loop_pairings, union_find_pass
from .filtration import FiltrationOrder, build_filtration, distance_sum_filter
from .graphs import (
    EnclosingSubgraph,
    Graph,
    enclosing_subgraph,
    k_hop_set,
    pair_count,
    pair_rows,
    sbm_generate,
    shortest_distances,
)
from .images import (
    ImageSpec,
    bounds_from_diagrams,
    persistence_image,
    spec_for_diagrams,
    transform_diagram,
)
from .model import (
    DataSplit,
    ModelState,
    TrainConfig,
    TrainResult,
    decode,
    gcn_forward,
    init_model,
    loss_and_gradients,
    make_split,
    roc_auc,
    train,
)
from .pipeline import apply_ricci_weights, pair_diagram, pair_image_table
from .reduction import (
    ReductionMatrix,
    build_reduction_matrix,
    diagram_via_reduction,
    reduce_matrix,
    reduction_pairs,
)
from .ricci import DiscreteMeasure, ollivier_ricci, ricci_edge_weights, wasserstein1

__version__ = "0.1.0"
