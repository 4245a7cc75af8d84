import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import homolink
from homolink.cli import main
from homolink.graphs import Graph
from homolink.io import read_edge_list, read_features_csv, write_edge_list
from conftest import TWO_LOOP_EDGES


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run(args):
    return main([str(a) for a in args])


def write_gadget_graph(path):
    """Six-node weighted graph whose distance sums assign 1..4 to the satellites."""
    edges = [(0, 1)]
    weights = {(0, 1): 0.25}
    for i in range(1, 5):
        sat = 1 + i
        edges += [(0, sat), (1, sat)]
        weights[(0, sat)] = i / 2
        weights[(1, sat)] = i / 2
    for a, b in [(2, 4), (3, 4), (2, 5), (3, 5), (4, 5)]:
        edges.append((a, b))
        weights[(a, b)] = 10.0
    write_edge_list(Graph(6, edges, weights), path)


def test_sbm_writes_files_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["sbm", "--n", 120, "--c", 4, "--p", 0.3, "--q", 0.02, "--d", 5, "--seed", 7]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    for name in ("edges.txt", "features.csv", "manifest.json"):
        assert (out1 / name).exists()
        assert read(out1 / name) == read(out2 / name)
    g = read_edge_list(out1 / "edges.txt")
    X = read_features_csv(out1 / "features.csv")
    assert X.shape == (120, 5)
    assert g.num_edges > 0


def test_sbm_edge_count_three_sigma(tmp_path):
    out = tmp_path / "sbm"
    assert run(["sbm", "--n", 1000, "--c", 5, "--p", 0.25, "--q", 0.015,
                "--d", 2, "--seed", 7, "--out", out]) == 0
    g = read_edge_list(out / "edges.txt")
    n_intra = 5 * 200 * 199 // 2
    n_inter = 1000 * 999 // 2 - n_intra
    mean = n_intra * 0.25 + n_inter * 0.015
    sigma = math.sqrt(n_intra * 0.25 * 0.75 + n_inter * 0.015 * 0.985)
    assert abs(g.num_edges - mean) <= 3 * sigma


def test_sbm_empty_when_probabilities_zero(tmp_path):
    out = tmp_path / "empty"
    assert run(["sbm", "--n", 10, "--c", 2, "--p", 0, "--q", 0, "--seed", 1, "--out", out]) == 0
    assert read(out / "edges.txt") == b""


def test_sbm_invalid_arguments_exit_nonzero(tmp_path, capsys):
    rc = run(["sbm", "--n", 10, "--c", 3, "--p", 0.5, "--q", 0.1, "--seed", 1,
              "--out", tmp_path / "x"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_diagram_both_algorithms_match_on_gadget(tmp_path):
    graph_path = tmp_path / "gadget.txt"
    write_gadget_graph(graph_path)
    out = tmp_path / "diag"
    rc = run(["diagram", "--graph", graph_path, "--u", 0, "--v", 1, "--k", 1,
              "--algo", "both", "--out", out])
    assert rc == 0
    verdict = json.loads(read(out / "verdict.json"))
    assert verdict == {"verdict": "match"}
    fast = json.loads(read(out / "diagram_fast.json"))
    red = json.loads(read(out / "diagram_reduction.json"))
    assert fast == red
    assert all(set(p) == {"dim", "birth", "death", "kind"} for p in fast)


def test_diagram_tree_fixture_has_no_loops(tmp_path):
    graph_path = tmp_path / "tree.txt"
    write_edge_list(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), graph_path)
    out = tmp_path / "diag"
    rc = run(["diagram", "--graph", graph_path, "--u", 1, "--v", 3, "--k", 2,
              "--algo", "both", "--keep-zero", "--out", out])
    assert rc == 0
    fast = json.loads(read(out / "diagram_fast.json"))
    assert all(p["dim"] == 0 for p in fast)


def test_diagram_random_fixtures_always_match(tmp_path):
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(6, 16))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        if not edges:
            continue
        graph_path = tmp_path / f"g{trial}.txt"
        write_edge_list(Graph(n, edges), graph_path)
        u, v = edges[int(rng.integers(len(edges)))]
        out = tmp_path / f"out{trial}"
        rc = run(["diagram", "--graph", graph_path, "--u", u, "--v", v, "--k", 2,
                  "--algo", "both", "--out", out])
        assert rc == 0
        assert json.loads(read(out / "verdict.json"))["verdict"] == "match"


def test_diagram_missing_node_errors(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    write_edge_list(Graph(3, [(0, 1), (1, 2)]), graph_path)
    rc = run(["diagram", "--graph", graph_path, "--u", 0, "--v", 99,
              "--out", tmp_path / "o"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_image_command_outputs_row_and_sidecar(tmp_path):
    graph_path = tmp_path / "worked.txt"
    write_edge_list(Graph(4, list(TWO_LOOP_EDGES)), graph_path)
    out = tmp_path / "img"
    rc = run(["image", "--graph", graph_path, "--u", 2, "--v", 3, "--k", 1,
              "--resolution", 5, 5, "--out", out])
    assert rc == 0
    row = read(out / "image.csv").decode().strip().split(",")
    assert len(row) == 25
    spec = json.loads(read(out / "image_spec.json"))
    assert spec["resolution"] == [5, 5]
    assert len(spec["bounds"]) == 4 and spec["sigma"] > 0


def test_ricci_command_emits_curvature_lines(tmp_path):
    graph_path = tmp_path / "tri.txt"
    write_edge_list(Graph(3, [(0, 1), (0, 2), (1, 2)]), graph_path)
    out = tmp_path / "ricci"
    assert run(["ricci", "--graph", graph_path, "--alpha", 0.5, "--out", out]) == 0
    lines = read(out / "curvatures.txt").decode().strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        u, v, kappa = line.split()
        assert int(u) < int(v)
        assert float(kappa) <= 1.0


def test_bench_command_schema_and_errors(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = run(["bench", "--sizes", 40, "--graphs-per-size", 2, "--avg-degree", 4,
              "--repetitions", 1, "--seed", 3, "--out", out])
    assert rc == 0
    lines = read(out / "bench.csv").decode().strip().splitlines()
    assert lines[0] == "graph_id,n,m,t_reduction_s,t_fast_s,ratio"
    assert len(lines) == 3
    capsys.readouterr()
    for bad in (["--repetitions", 0], ["--sizes", 40, 1], ["--graphs-per-size", 0]):
        rc = run(["bench", "--sizes", 40, *bad, "--out", tmp_path / "b2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "b2").exists()


def test_train_command_report_and_determinism(tmp_path):
    src = tmp_path / "data"
    assert run(["sbm", "--n", 60, "--c", 3, "--p", 0.4, "--q", 0.05, "--d", 4,
                "--seed", 11, "--out", src]) == 0
    args = ["train", "--graph", src / "edges.txt", "--features", src / "features.csv",
            "--k", 1, "--metric", "hop", "--epochs", 4, "--patience", 5, "--seed", 2]
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    report = json.loads(read(out1 / "report.json"))
    assert set(report) == {"test_auc", "best_epoch", "seed"}
    assert 0.0 <= report["test_auc"] <= 1.0
    for name in ("report.json", "metrics.csv", "manifest.json"):
        assert read(out1 / name) == read(out2 / name)
    header = read(out1 / "metrics.csv").decode().splitlines()[0]
    assert header == "epoch,train_loss,val_auc"


def test_seeded_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the thread count is read when numpy loads, so each run is a fresh process
    data = tmp_path / "data"
    assert run(["sbm", "--n", 80, "--c", 4, "--p", 0.3, "--q", 0.03, "--d", 4,
                "--seed", 5, "--out", data]) == 0
    commands = {
        "train": (["train", "--graph", data / "edges.txt", "--features", data / "features.csv",
                   "--k", 1, "--metric", "ricci", "--epochs", 20, "--patience", 30, "--seed", 3],
                  ["report.json", "metrics.csv"]),
        "ricci": (["ricci", "--graph", data / "edges.txt", "--alpha", 0.5, "--seed", 1],
                  ["curvatures.txt"]),
    }
    src = str(Path(homolink.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        for name, (args, files) in commands.items():
            out = tmp_path / f"{name}{threads}"
            cmd = [sys.executable, "-m", "homolink.cli", *map(str, args), "--out", str(out)]
            subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=300)
            for fname in files:
                outputs.setdefault(fname, []).append(read(out / fname))
    for fname, (one, two) in outputs.items():
        assert one == two, f"{fname} differs between 1 and 2 BLAS threads"


def test_train_config_file_overrides(tmp_path):
    src = tmp_path / "data"
    assert run(["sbm", "--n", 60, "--c", 3, "--p", 0.4, "--q", 0.05, "--d", 4,
                "--seed", 11, "--out", src]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=3\nlr=0.02\n# comment\npatience=4\n")
    out = tmp_path / "t"
    assert run(["train", "--graph", src / "edges.txt", "--features", src / "features.csv",
                "--config", cfg, "--seed", 5, "--out", out]) == 0
    metrics = read(out / "metrics.csv").decode().strip().splitlines()
    assert len(metrics) - 1 <= 3


def test_train_config_file_rejects_unknown_keys(tmp_path, capsys):
    src = tmp_path / "data"
    assert run(["sbm", "--n", 60, "--c", 3, "--p", 0.4, "--q", 0.05, "--d", 4,
                "--seed", 11, "--out", src]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epoch=5\n")
    out = tmp_path / "t"
    assert run(["train", "--graph", src / "edges.txt", "--features", src / "features.csv",
                "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys epoch" in err
    assert "accepted keys: epochs, lr, weight_decay, patience, seed" in err
    assert not (out / "report.json").exists()


def test_manifest_written_for_every_command(tmp_path):
    out = tmp_path / "sbm"
    run(["sbm", "--n", 10, "--c", 2, "--p", 0.5, "--q", 0.1, "--seed", 1, "--out", out])
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["command"] == "sbm"
    assert manifest["seed"] == 1
    assert manifest["n"] == 10
