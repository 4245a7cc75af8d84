import json

import numpy as np
import pytest

from homolink.diagrams import DiagramPoint, ORDINARY_ASCENDING, PersistenceDiagram
from homolink.graphs import Graph
from homolink.io import (
    load_graph,
    parse_config_file,
    read_edge_list,
    read_features_csv,
    write_diagram_json,
    write_edge_list,
    write_features_csv,
)


def test_edge_list_round_trip(tmp_path):
    g = Graph(5, [(0, 1), (1, 2), (3, 4)], {(1, 2): 0.75})
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.edges == g.edges
    assert back.weight(1, 2) == 0.75
    assert back.weight(0, 1) == 1.0


def test_edge_list_node_count_override(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n")
    assert read_edge_list(path).n == 2
    assert read_edge_list(path, n=7).n == 7


def test_edge_list_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2 3\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    path.write_text("a b\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_edge_list_rejects_infinite_weight(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 inf\n1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


@pytest.mark.parametrize(
    "text, n, message",
    [
        ("0 1\n1 2 abc\n", None, r"edges\.txt:2: weight must be a number"),
        ("# header\n0 1\n1 1\n", None, r"edges\.txt:3: self-loop at node 1"),
        ("0 1 nan\n", None, r"edges\.txt:1: weight nan is not positive and finite"),
        ("0 1 -2.0\n", None, r"edges\.txt:1: weight -2\.0 is not positive and finite"),
        ("0 1\n1 2\n\n2 1\n", None, r"edges\.txt:4: duplicate edge \(1, 2\), first on line 2"),
        ("0 1\n1 5\n", 3, r"edges\.txt:2: node id 5 out of range for n=3"),
    ],
    ids=["text-weight", "self-loop", "nan-weight", "negative-weight", "duplicate-edge", "id-out-of-range"],
)
def test_edge_list_errors_name_the_line(tmp_path, text, n, message):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_edge_list(path, n=n)


def test_edge_list_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# header\n\n0 1\n")
    assert read_edge_list(path).edges == [(0, 1)]


def test_features_round_trip(tmp_path):
    X = np.random.default_rng(0).normal(size=(4, 3))
    path = tmp_path / "feat.csv"
    write_features_csv(X, path)
    assert np.array_equal(read_features_csv(path), X)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0,2.0\n\n3.0,4.0\n5.0\n", r"feat\.csv:4: expected 2 columns, got 1"),
        ("1.0,2.0\n3.0,abc\n", r"feat\.csv:2: feature values must be numbers"),
    ],
)
def test_features_csv_rejects_malformed_rows(tmp_path, text, message):
    path = tmp_path / "feat.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_features_csv(path)


def test_load_graph_takes_node_count_from_features(tmp_path):
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n")
    feats = tmp_path / "f.csv"
    write_features_csv(np.zeros((6, 2)), feats)
    g = load_graph(edges, feats)
    assert g.n == 6
    assert g.node_features.shape == (6, 2)


def test_diagram_json_round_trip(tmp_path):
    d = PersistenceDiagram(
        [
            DiagramPoint(1, 4.0, 1.0, "extended-1"),
            DiagramPoint(0, 2.0, 3.0, ORDINARY_ASCENDING),
        ]
    )
    path = tmp_path / "d.json"
    write_diagram_json(d, path)
    obj = json.loads(path.read_text())
    back = PersistenceDiagram([DiagramPoint(**rec) for rec in obj])
    assert back.as_multiset() == d.as_multiset()
    assert obj == sorted(obj, key=lambda p: (p["dim"], p["birth"], p["death"], p["kind"]))


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# run settings\nepochs = 12\nlr=0.05\n\n")
    assert parse_config_file(path) == {"epochs": "12", "lr": "0.05"}
    path.write_text("epochs\n")
    with pytest.raises(ValueError):
        parse_config_file(path)
