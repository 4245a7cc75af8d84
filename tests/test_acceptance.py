"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end experiment
(criterion 8) dominates the runtime; everything else finishes in seconds.
"""

import itertools
import time

import numpy as np
import pytest

import homolink as hl
from homolink.cli import main as cli_main
from homolink.diagrams import PersistenceDiagram
from homolink.model import TrainConfig
from oracles import random_diagram, scipy_components, transport_min_cost
from conftest import TWO_LOOP_EDGES, TWO_LOOP_FILTER


def verdict(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------------------
# 1. Golden worked example


def test_criterion_1_golden_example():
    t0 = time.perf_counter()
    g = hl.Graph(4, list(TWO_LOOP_EDGES))
    ford = hl.build_filtration(g, TWO_LOOP_FILTER)
    want_dim0 = sorted([(2.0, 3.0), (1.0, 4.0)])
    want_dim1 = sorted([(4.0, 2.0), (4.0, 1.0)])
    ok = True
    for diagram in (hl.diagram_via_reduction(ford), hl.fast_extended_diagram(ford)):
        dim0 = sorted((p.birth, p.death) for p in diagram.in_dimension(0))
        dim1 = sorted((p.birth, p.death) for p in diagram.in_dimension(1))
        ok = ok and dim0 == want_dim0 and dim1 == want_dim1
    elapsed = time.perf_counter() - t0
    verdict(1, ok and elapsed < 1.0, f"both algorithms exact in {elapsed:.3f}s")


# --------------------------------------------------------------------------
# 2 + 3. Equivalence sweep and cycle-rank check share one corpus


@pytest.fixture(scope="module")
def equivalence_sweep():
    rng = np.random.default_rng(20240817)
    results = []
    t0 = time.perf_counter()
    for trial in range(500):
        n = int(rng.integers(2, 26))
        if trial % 10 == 0:
            # force a disconnected instance: two blocks, no cross edges
            half = max(1, n // 2)
            edges = [
                (i, j)
                for i, j in itertools.combinations(range(half), 2)
                if rng.random() < 0.4
            ]
            edges += [
                (half + i, half + j)
                for i, j in itertools.combinations(range(n - half), 2)
                if rng.random() < 0.4
            ]
        else:
            p = float(rng.choice([0.15, 0.3, 0.6]))
            edges = [
                (i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p
            ]
        g = hl.Graph(n, edges)
        f = rng.permutation(n).astype(float)  # distinct values
        ford = hl.build_filtration(g, f)
        fast = hl.fast_extended_diagram(ford)
        oracle = hl.diagram_via_reduction(ford)
        fast_all = hl.fast_extended_diagram(ford, keep_zero=True)
        comps, _ = scipy_components(g)
        results.append(
            {
                "match": fast.as_multiset() == oracle.as_multiset(),
                "dim1": len(fast_all.in_dimension(1)),
                "cycle_rank": g.num_edges - g.n + comps,
            }
        )
    return results, time.perf_counter() - t0


def test_criterion_2_equivalence(equivalence_sweep):
    results, elapsed = equivalence_sweep
    mismatches = sum(not r["match"] for r in results)
    verdict(
        2,
        mismatches == 0 and elapsed < 120.0,
        f"{len(results)} graphs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_cycle_rank(equivalence_sweep):
    results, _ = equivalence_sweep
    bad = sum(r["dim1"] != r["cycle_rank"] for r in results)
    verdict(3, bad == 0, f"dim-1 count equals |E|-|V|+components on all {len(results)} graphs")


# --------------------------------------------------------------------------
# 4. Speedup direction


def test_criterion_4_speedup():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    p = 1500.0 / (300 * 299 / 2)
    inputs = []
    for _ in range(20):
        g = hl.sbm_generate(300, 1, p, p, 0, seed=int(rng.integers(2**31)))
        inputs.append((g, rng.permutation(300).astype(float)))
    report = hl.bench_compare(inputs, repetitions=1)
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        report.mean_ratio >= 1.2 and elapsed < 300.0,
        f"mean reduction/fast ratio {report.mean_ratio:.2f} over 20 graphs, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 5. Gradient correctness


def test_criterion_5_gradients():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(4, 13))
        d = int(rng.integers(2, 9))
        edges = [
            (i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.4
        ]
        g = hl.Graph(n, edges)
        X = rng.normal(size=(n, d))
        state = hl.init_model(d, 25, seed=int(rng.integers(2**31)))
        batch = []
        while len(batch) < 6:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                batch.append((u, v, int(rng.integers(2)), rng.uniform(size=25)))
        _, grads = hl.loss_and_gradients(batch, g, X, state)
        for key, tensor in state.params.items():
            flat = tensor.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = hl.loss_and_gradients(batch, g, X, state)
                flat[idx] = orig - h
                lm, _ = hl.loss_and_gradients(batch, g, X, state)
                flat[idx] = orig
                numeric = (lp - lm) / (2 * h)
                analytic = grads[key].ravel()[idx]
                rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    verdict(
        5,
        worst <= 1e-4 and elapsed < 60.0,
        f"worst relative error {worst:.2e} over 10 configurations, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 6. Wasserstein against transportation-polytope enumeration


def test_criterion_6_wasserstein_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        a = rng.dirichlet(np.ones(r))
        b = rng.dirichlet(np.ones(c))
        C = rng.uniform(0.0, 4.0, size=(r, c))
        mu = hl.DiscreteMeasure({i: float(a[i]) for i in range(r)})
        nu = hl.DiscreteMeasure({10 + j: float(b[j]) for j in range(c)})
        cost = {
            (i, 10 + j): float(C[i, j]) for i in range(r) for j in range(c)
        }
        got = hl.wasserstein1(mu, nu, cost)
        want = transport_min_cost(a, b, C)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    verdict(
        6,
        worst <= 1e-8 and elapsed < 30.0,
        f"worst deviation {worst:.2e} over 100 instances, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 7. Persistence-image properties


def test_criterion_7_image_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    spec = hl.ImageSpec(resolution=(5, 5), sigma=0.5, bounds=(-1.0, 6.0, -1.0, 6.0))
    ok = True
    assert (hl.persistence_image(PersistenceDiagram([]), spec) == 0).all()
    for _ in range(50):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        img1 = hl.persistence_image(d1, spec)
        ok = ok and (img1 >= 0).all()
        union_img = hl.persistence_image(d1.union(d2), spec)
        ok = ok and np.abs(union_img - img1 - hl.persistence_image(d2, spec)).max() <= 1e-9
        shuffled = PersistenceDiagram([d1.points[i] for i in rng.permutation(len(d1))])
        ok = ok and np.array_equal(hl.persistence_image(shuffled, spec), img1)
    elapsed = time.perf_counter() - t0
    verdict(7, ok and elapsed < 30.0, f"50 random diagrams, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 8. End-to-end experiment: topology beats its own ablation


def test_criterion_8_end_to_end_sbm():
    t0 = time.perf_counter()
    g = hl.sbm_generate(250, 5, 0.25, 0.015, 32, seed=42)
    tlc, ablated = [], []
    for seed in range(10):
        config = TrainConfig(epochs=300, patience=100, seed=seed)
        tlc.append(
            hl.run_link_prediction(g, k=1, metric="ricci", config=config).report["test_auc"]
        )
        config = TrainConfig(epochs=300, patience=100, seed=seed)
        ablated.append(
            hl.run_link_prediction(
                g, k=1, metric="ricci", config=config, ablate_topology=True
            ).report["test_auc"]
        )
    mean_tlc = float(np.mean(tlc))
    mean_abl = float(np.mean(ablated))
    elapsed = time.perf_counter() - t0
    verdict(
        8,
        mean_tlc > mean_abl and mean_tlc >= 0.6 and mean_abl >= 0.6 and elapsed < 1200.0,
        f"topology {mean_tlc:.4f} vs ablated {mean_abl:.4f} over 10 seeds, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 9. Byte-identical reruns of every seeded command


def _run_twice(tmp_path, name, args, compare):
    out1 = tmp_path / f"{name}1"
    out2 = tmp_path / f"{name}2"
    assert cli_main([str(a) for a in args + ["--out", out1]]) == 0
    assert cli_main([str(a) for a in args + ["--out", out2]]) == 0
    for fname in compare:
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        if b1 != b2:
            return False, f"{name}/{fname} differs"
    return True, ""


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "data"
    assert (
        cli_main(
            [
                "sbm", "--n", "80", "--c", "4", "--p", "0.3", "--q", "0.03",
                "--d", "4", "--seed", "5", "--out", str(data),
            ]
        )
        == 0
    )
    graph = str(data / "edges.txt")
    features = str(data / "features.csv")
    checks = [
        (
            "sbm",
            ["sbm", "--n", "80", "--c", "4", "--p", "0.3", "--q", "0.03", "--d", "4", "--seed", "5"],
            ["edges.txt", "features.csv", "manifest.json"],
        ),
        (
            "diagram",
            ["diagram", "--graph", graph, "--u", "0", "--v", "1", "--k", "2",
             "--algo", "both", "--seed", "1"],
            ["diagram_fast.json", "diagram_reduction.json", "verdict.json", "manifest.json"],
        ),
        (
            "image",
            ["image", "--graph", graph, "--u", "0", "--v", "1", "--k", "2", "--seed", "1"],
            ["image.csv", "image_spec.json", "manifest.json"],
        ),
        (
            "ricci",
            ["ricci", "--graph", graph, "--alpha", "0.5", "--seed", "1"],
            ["curvatures.txt", "manifest.json"],
        ),
        (
            "train",
            ["train", "--graph", graph, "--features", features, "--k", "1",
             "--epochs", "4", "--patience", "5", "--seed", "3"],
            ["report.json", "metrics.csv", "manifest.json"],
        ),
    ]
    failures = []
    for name, args, compare in checks:
        ok, msg = _run_twice(tmp_path, name, args, compare)
        if not ok:
            failures.append(msg)
    # bench timings are wall-clock and cannot be byte-identical; its
    # deterministic columns must still agree
    out1, out2 = tmp_path / "bench1", tmp_path / "bench2"
    bench_args = ["bench", "--sizes", "40", "--graphs-per-size", "2",
                  "--avg-degree", "4", "--repetitions", "1", "--seed", "2"]
    assert cli_main([str(a) for a in bench_args + ["--out", out1]]) == 0
    assert cli_main([str(a) for a in bench_args + ["--out", out2]]) == 0
    rows1 = (out1 / "bench.csv").read_text().splitlines()
    rows2 = (out2 / "bench.csv").read_text().splitlines()
    stable = [",".join(r.split(",")[:3]) for r in rows1]
    stable2 = [",".join(r.split(",")[:3]) for r in rows2]
    if stable != stable2:
        failures.append("bench stable columns differ")
    if (out1 / "manifest.json").read_bytes() != (out2 / "manifest.json").read_bytes():
        failures.append("bench manifest differs")
    verdict(9, not failures, "; ".join(failures) or "all seeded commands byte-identical")
