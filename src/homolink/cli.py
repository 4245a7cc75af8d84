"""Command-line front door: generation, diagrams, features, benchmarks, training.

Every run resolves its configuration to explicit values, writes the outputs
into ``--out``, and echoes the resolved configuration as ``manifest.json`` in
the same directory. Diagnostics go to stderr; the exit code is 0 iff the run
succeeded.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import io
from .experiment import DEFAULT_METRIC, DEFAULT_RICCI_ALPHA, run_link_prediction
from .fast_ph import bench_compare, fast_extended_diagram
from .graphs import enclosing_subgraph, sbm_generate
from .images import ImageSpec, persistence_image, spec_for_diagrams
from .model import TrainConfig
from .pipeline import METRICS, metric_graph, pair_diagram, subgraph_filtration
from .reduction import diagram_via_reduction
from .ricci import ollivier_ricci


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _manifest(out: str, command: str, args: argparse.Namespace, skip=("out", "func")) -> None:
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and not callable(v)
    }
    resolved["command"] = command
    io.write_manifest(out, resolved)


def _load_graph(args):
    return io.load_graph(args.graph, getattr(args, "features", None), getattr(args, "nodes", None))


def cmd_sbm(args) -> int:
    g = sbm_generate(args.n, args.communities, args.p, args.q, args.feature_dim, args.seed)
    out = _ensure_out(args.out)
    io.write_edge_list(g, os.path.join(out, "edges.txt"))
    if g.node_features is not None:
        io.write_features_csv(g.node_features, os.path.join(out, "features.csv"))
    _manifest(out, "sbm", args)
    print(f"wrote {g.num_edges} edges for {g.n} nodes to {out}", file=sys.stderr)
    return 0


def cmd_diagram(args) -> int:
    g = metric_graph(_load_graph(args), args.metric, args.alpha)
    sub = enclosing_subgraph(g, args.u, args.v, args.k, drop_target_edge=not args.keep_target_edge)
    ford = subgraph_filtration(sub, args.metric)
    out = _ensure_out(args.out)
    diagrams = {}
    if args.algo in ("fast", "both"):
        diagrams["fast"] = fast_extended_diagram(ford, keep_zero=args.keep_zero)
        io.write_diagram_json(diagrams["fast"], os.path.join(out, "diagram_fast.json"))
    if args.algo in ("reduction", "both"):
        diagrams["reduction"] = diagram_via_reduction(ford, keep_zero=args.keep_zero)
        io.write_diagram_json(diagrams["reduction"], os.path.join(out, "diagram_reduction.json"))
    if args.algo == "both":
        match = diagrams["fast"].as_multiset() == diagrams["reduction"].as_multiset()
        verdict = "match" if match else "mismatch"
        with open(os.path.join(out, "verdict.json"), "w") as fh:
            json.dump({"verdict": verdict}, fh, sort_keys=True)
            fh.write("\n")
        print(f"algorithms {verdict}", file=sys.stderr)
        if not match:
            _manifest(out, "diagram", args)
            return 1
    _manifest(out, "diagram", args)
    return 0


def cmd_image(args) -> int:
    g = metric_graph(_load_graph(args), args.metric, args.alpha)
    diagram, _size = pair_diagram(
        g, args.u, args.v, args.k, args.metric,
        drop_target_edge=not args.keep_target_edge,
    )
    if args.bounds is not None:
        x_min, x_max, y_min, y_max = args.bounds
        sigma = args.sigma if args.sigma is not None else 0.2 * max(x_max - x_min, y_max - y_min)
        spec = ImageSpec(tuple(args.resolution), sigma, tuple(args.bounds))
    else:
        spec = spec_for_diagrams(
            [diagram], resolution=tuple(args.resolution), sigma=args.sigma,
            absolute=not args.literal_transform,
        )
    image = persistence_image(diagram, spec, absolute=not args.literal_transform)
    out = _ensure_out(args.out)
    with open(os.path.join(out, "image.csv"), "w") as fh:
        fh.write(",".join(repr(float(x)) for x in image) + "\n")
    with open(os.path.join(out, "image_spec.json"), "w") as fh:
        json.dump(spec.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _manifest(out, "image", args)
    return 0


def cmd_ricci(args) -> int:
    g = _load_graph(args)
    kappa = ollivier_ricci(g, args.alpha)
    out = _ensure_out(args.out)
    io.write_curvatures(kappa, os.path.join(out, "curvatures.txt"))
    _manifest(out, "ricci", args)
    return 0


def cmd_bench(args) -> int:
    if args.repetitions <= 0:
        raise ValueError("repetitions must be positive")
    if min(args.sizes) < 2:
        raise ValueError("sizes must be at least 2")
    if args.graphs_per_size < 1:
        raise ValueError("graphs-per-size must be at least 1")
    rng = np.random.default_rng(args.seed)
    inputs = []
    for size in args.sizes:
        m_target = int(size * args.avg_degree / 2)
        p = min(1.0, m_target / (size * (size - 1) / 2))
        for _ in range(args.graphs_per_size):
            g = sbm_generate(size, 1, p, p, 0, int(rng.integers(2**31)))
            f = rng.permutation(size).astype(float)
            inputs.append((g, f))
    report = bench_compare(inputs, repetitions=args.repetitions)
    out = _ensure_out(args.out)
    with open(os.path.join(out, "bench.csv"), "w") as fh:
        fh.write(report.to_csv())
    _manifest(out, "bench", args)
    print(f"mean reduction/fast ratio: {report.mean_ratio:.3f}", file=sys.stderr)
    return 0


TRAIN_CONFIG_KEYS = ("epochs", "lr", "weight_decay", "patience", "seed")


def cmd_train(args) -> int:
    g = _load_graph(args)
    if g.node_features is None:
        raise ValueError("train requires a node feature matrix (--features)")
    overrides = io.parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(overrides) - set(TRAIN_CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"{args.config}: unknown config keys {', '.join(unknown)}; "
            f"accepted keys: {', '.join(TRAIN_CONFIG_KEYS)}"
        )
    config = TrainConfig(
        epochs=int(overrides.get("epochs", args.epochs)),
        lr=float(overrides.get("lr", args.lr)),
        weight_decay=float(overrides.get("weight_decay", args.weight_decay)),
        patience=int(overrides.get("patience", args.patience)),
        seed=int(overrides.get("seed", args.seed)),
    )
    result = run_link_prediction(
        g,
        k=args.k,
        metric=args.metric,
        config=config,
        resolution=tuple(args.resolution),
        ablate_topology=args.zero_images,
        ricci_alpha=args.alpha,
    )
    out = _ensure_out(args.out)
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(result.report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    io.write_metrics_csv(result.train_result.history, os.path.join(out, "metrics.csv"))
    _manifest(out, "train", args)
    print(f"test ROC-AUC {result.report['test_auc']:.4f}", file=sys.stderr)
    return 0


def _add_graph_args(p: argparse.ArgumentParser, with_features: bool = True) -> None:
    p.add_argument("--graph", required=True, help="edge-list file, one 'u v [weight]' per line")
    if with_features:
        p.add_argument("--features", help="node feature CSV, one row per node")
    p.add_argument("--nodes", type=int, help="node count override for isolated trailing nodes")


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--u", type=int, required=True, help="first target node")
    p.add_argument("--v", type=int, required=True, help="second target node")
    p.add_argument("--k", type=int, default=1, help="hop radius of the enclosing subgraph")
    p.add_argument("--metric", choices=METRICS, default="hop")
    p.add_argument("--alpha", type=float, default=0.5, help="Ricci idleness parameter")
    p.add_argument(
        "--keep-target-edge", action="store_true",
        help="keep the (u, v) edge inside the subgraph instead of dropping it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homolink")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sbm", help="generate a stochastic-block-model graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--communities", "--c", dest="communities", type=int, required=True)
    p.add_argument("--p", type=float, required=True, help="intra-community edge probability")
    p.add_argument("--q", type=float, required=True, help="inter-community edge probability")
    p.add_argument("--feature-dim", "--d", dest="feature_dim", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sbm)

    p = sub.add_parser("diagram", help="extended persistence diagram of one node pair")
    _add_graph_args(p)
    _add_pair_args(p)
    p.add_argument("--algo", choices=("fast", "reduction", "both"), default="fast")
    p.add_argument("--keep-zero", action="store_true", help="retain zero-persistence points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("image", help="persistence image of one node pair")
    _add_graph_args(p)
    _add_pair_args(p)
    p.add_argument("--resolution", type=int, nargs=2, default=(5, 5), metavar=("ROWS", "COLS"))
    p.add_argument("--sigma", type=float, help="Gaussian bandwidth; fitted when omitted")
    p.add_argument(
        "--bounds", type=float, nargs=4, metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
        help="grid rectangle; fitted to the diagram when omitted",
    )
    p.add_argument(
        "--literal-transform", action="store_true",
        help="use signed persistence death - birth instead of |death - birth|",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("ricci", help="Ollivier-Ricci curvature of every edge")
    _add_graph_args(p, with_features=False)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ricci)

    p = sub.add_parser("bench", help="time the reduction against the fast algorithm")
    p.add_argument("--sizes", type=int, nargs="+", default=[300])
    p.add_argument("--graphs-per-size", type=int, default=20)
    p.add_argument("--avg-degree", type=float, default=10.0)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="end-to-end link-prediction experiment")
    _add_graph_args(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--metric", choices=METRICS, default=DEFAULT_METRIC)
    p.add_argument("--alpha", type=float, default=DEFAULT_RICCI_ALPHA)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--patience", type=int, default=200)
    p.add_argument("--resolution", type=int, nargs=2, default=(5, 5), metavar=("ROWS", "COLS"))
    p.add_argument("--config", help="flat key=value file overriding training flags")
    p.add_argument(
        "--zero-images", action="store_true",
        help="topology-ablated run: feed the decoder zero images",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
