"""Self-tests of the benchmark: every check fails on a deliberately wrong output,
the inputs match the program's own generators, tracing survives a missing
target, and the tiny mode runs all three workloads end to end.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import homolink as hl  # noqa: E402
import homolink.pipeline  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _filtered(g, f):
    ford = hl.build_filtration(g, f)
    return hl.fast_extended_diagram(ford), hl.diagram_via_reduction(ford), hl.fast_extended_diagram(ford, keep_zero=True)


@pytest.fixture
def graph():
    edges, _ = workloads.sbm_edges(30, 1, 0.2, 0.2, 0, 3)
    f = np.random.default_rng(3).permutation(30).astype(float)
    return hl.Graph(30, edges), f, edges


def test_diagram_checks_pass_on_program_output(graph):
    g, f, edges = graph
    fast, red, full = _filtered(g, f)
    assert checks.check_diagram_pair(fast, red) == []
    assert checks.check_diagram_counts(g.n, edges, f, full, fast) == []


def test_diagram_missing_one_point_fails(graph):
    g, f, edges = graph
    fast, red, full = _filtered(g, f)
    assert checks.check_diagram_pair(fast.points[1:], red)
    for kind in (hl.EXTENDED_1, hl.ESSENTIAL_0):
        i = next(i for i, p in enumerate(full.points) if p.kind == kind)
        assert checks.check_diagram_counts(g.n, edges, f, full.points[:i] + full.points[i + 1 :], fast)


def test_filter_off_by_one_fails():
    sub = hl.enclosing_subgraph(hl.Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)]), 0, 2, 2)
    f = hl.distance_sum_filter(sub)
    assert checks.check_filter(sub.graph.n, sub.graph.edges, sub.targets, f) == []
    for node in range(sub.graph.n):
        wrong = f.copy()
        wrong[node] += 1.0
        assert checks.check_filter(sub.graph.n, sub.graph.edges, sub.targets, wrong)


def test_filter_clamps_unreachable_nodes():
    # node 3 is unreachable from both targets: one above the largest finite value
    want = checks.expected_filter(4, [(0, 1), (1, 2)], (0, 2))
    assert want.tolist() == [2.0, 2.0, 2.0, 3.0]


def test_subgraph_with_extra_node_fails():
    g = hl.Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    sub = hl.enclosing_subgraph(g, 0, 2, 1, drop_target_edge=True)
    assert checks.check_subgraph(5, g.edges, 0, 2, 1, sub.node_map, sub.graph.edges) == []
    assert checks.check_subgraph(5, g.edges, 0, 2, 1, sub.node_map + [4], sub.graph.edges)
    assert checks.check_subgraph(5, g.edges, 0, 2, 1, sub.node_map, sub.graph.edges[1:])


def test_auc_below_floor_fails():
    assert checks.check_auc(0.6, "topology") == []
    assert checks.check_auc(0.5999, "topology")
    assert checks.check_auc(float("nan"), "ablated")


def test_image_checks():
    assert checks.check_image(np.zeros(25), 25) == []
    assert checks.check_image(np.zeros(24), 25)
    assert checks.check_image(np.full(25, np.nan), 25)
    assert checks.check_image(-np.ones(25), 25)


def test_split_checks():
    g = hl.sbm_generate(40, 2, 0.5, 0.05, 4, seed=1)
    split = hl.make_split(g, seed=0)
    assert checks.check_split(g.edges, split) == []
    split.val_neg[0] = split.train_pos[0]
    assert checks.check_split(g.edges, split)
    split = hl.make_split(g, seed=0)
    split.train_pos.pop()
    assert checks.check_split(g.edges, split)


def test_ricci_check_matches_program_and_catches_a_wrong_weight():
    g = hl.sbm_generate(40, 2, 0.5, 0.05, 0, seed=1)
    weights = hl.apply_ricci_weights(g, 0.5).edge_weights
    sample = g.edges[:10]
    assert checks.check_ricci(g.n, g.edges, weights, sample, 0.5) == []
    wrong = dict(weights)
    wrong[sample[3]] += 1e-6
    assert checks.check_ricci(g.n, g.edges, wrong, sample, 0.5)


def test_inputs_match_the_program_generators():
    g = hl.sbm_generate(250, 5, 0.25, 0.015, 32, seed=42)
    edges, features = workloads.sbm_edges(**workloads.REFERENCE_GRAPH)
    assert edges == g.edges and len(edges) == 1896
    assert np.array_equal(features, g.node_features)
    # the graphs of `homolink bench --sizes 300 --avg-degree 10 --seed 5`
    rng = np.random.default_rng(5)
    p = 1500 / (300 * 299 / 2)
    bench_g = hl.sbm_generate(300, 1, p, p, 0, int(rng.integers(2**31)))
    bench_f = rng.permutation(300).astype(float)
    wl = workloads.Diagrams(5, False, "unused")
    first_g, first_f, _ = wl.items[0]
    assert first_g.edges == bench_g.edges and np.array_equal(first_f, bench_f)


def test_pairs_workload_check_catches_a_wrong_filter(tmp_path):
    wl = workloads.Pairs(0, True, str(tmp_path))
    first = {kind: [wl.run(kind, item) for item in wl.items] for kind in wl.kinds}
    assert wl.check(first) == []
    diagram, sub, f, image = first["oracle"][2]
    first["oracle"][2] = (diagram, sub, f + np.eye(len(f))[0], image)
    failures = wl.check(first)
    assert failures and {i for _, i, _ in failures} == {2}
    assert not wl.same("oracle", first["oracle"][2], wl.run("oracle", wl.items[2]))


def test_diagrams_workload_check_catches_a_missing_point(tmp_path):
    wl = workloads.Diagrams(0, True, str(tmp_path))
    first = {kind: [wl.run(kind, item) for item in wl.items] for kind in wl.kinds}
    assert wl.check(first) == []
    first["fast"][1] = hl.PersistenceDiagram(first["fast"][1].points[:-1])
    assert {i for _, i, _ in wl.check(first)} == {1}
    assert not wl.same("fast", first["fast"][1], wl.run("fast", wl.items[1]))


def test_tracer_skips_absent_targets(monkeypatch):
    monkeypatch.delattr(homolink.pipeline, "CachedImageProvider")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("batch_features", "pipeline", "homolink.pipeline", "no_such_function")])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("op:fast"):
            hl.pair_diagram(hl.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 0, 2, 1)
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == {"CachedImageProvider", "batch_features"}
    assert "pipeline.provider_calls" in tracing.absent_metrics(tracer.absent)
    metrics = tracing.layer_metrics(tracer.arrays(), tracer.names, tracer.layers)
    assert metrics["pipeline.pair_diagram_calls"] == 1 and metrics["graphs.extract_calls"] == 1
    assert set(metrics) == set(tracing.PER_LAYER) | {f"ablated.{m}" for m in tracing.ABLATED}
    assert not hasattr(hl.pair_diagram, "__wrapped__")


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--tiny", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_mode_runs_every_workload(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    plain = _run(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 2
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    first, second = _run(workload, 1), _run(workload, 1)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = lambda r: {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "ratio")}
    assert counts(first) == counts(second)
