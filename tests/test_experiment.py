import itertools

import pytest

import homolink.experiment as experiment
import homolink.pipeline as pipeline
import homolink.ricci as ricci
from homolink.graphs import sbm_generate
from homolink.images import ImageSpec
from homolink.model import TrainConfig
from homolink.pipeline import pair_diagram


def small_graph():
    return sbm_generate(40, 2, 0.4, 0.05, 4, seed=3)


def test_ablated_variant_does_no_topological_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the ablated variant computed a topological input")

    for module, name in [
        (ricci, "ricci_edge_weights"),
        (pipeline, "ricci_edge_weights"),
        (pipeline, "pair_diagram"),
        (experiment, "pair_diagram"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    config = TrainConfig(epochs=3, patience=5, seed=0)
    result = experiment.run_link_prediction(
        small_graph(), k=1, metric="ricci", config=config, ablate_topology=True
    )
    assert result.image_spec == ImageSpec(resolution=(5, 5))
    assert len(result.train_result.history) == 3


def test_unknown_metric_rejected_in_both_variants():
    for ablate in (False, True):
        with pytest.raises(ValueError):
            experiment.run_link_prediction(
                small_graph(), metric="euclidean", ablate_topology=ablate
            )


def test_topology_run_computes_each_pair_diagram_once(monkeypatch):
    calls = []

    def counting(g, u, v, *args, **kwargs):
        calls.append((min(u, v), max(u, v)))
        return pair_diagram(g, u, v, *args, **kwargs)

    monkeypatch.setattr(pipeline, "pair_diagram", counting)
    monkeypatch.setattr(experiment, "pair_diagram", counting)
    g = small_graph()
    config = TrainConfig(epochs=2, patience=5, seed=1)
    result = experiment.run_link_prediction(g, k=1, metric="hop", config=config)
    assert sorted(calls) == list(itertools.combinations(range(g.n), 2))
    assert len(result.train_result.history) == 2


@pytest.mark.parametrize("metric", ["hop", "ricci"])
def test_held_out_edges_reach_neither_features_nor_training(monkeypatch, metric):
    graphs = {}

    def capture(name, original):
        def wrapper(g, *args, **kwargs):
            graphs.setdefault(name, []).append(g)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(experiment, name, wrapper)

    capture("pair_diagram", experiment.pair_diagram)
    capture("pair_image_table", experiment.pair_image_table)
    capture("train", experiment.train)
    config = TrainConfig(epochs=1, patience=5, seed=2)
    split = experiment.run_link_prediction(small_graph(), k=2, metric=metric, config=config).split
    held_out = split.val_pos + split.test_pos
    assert sorted(graphs) == ["pair_diagram", "pair_image_table", "train"]
    for g in (g for seen in graphs.values() for g in seen):
        assert not any(g.has_edge(u, v) for u, v in held_out)


def test_warns_when_every_fitted_diagram_is_empty(caplog):
    g = small_graph()
    config = TrainConfig(epochs=1, patience=5, seed=0)
    with caplog.at_level("WARNING", logger="homolink.experiment"):
        experiment.run_link_prediction(g, k=1, metric="hop", config=config)
    assert "every training-positive diagram is empty at k=1, metric=hop" in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="homolink.experiment"):
        experiment.run_link_prediction(g, k=1, metric="ricci", config=config)
    assert not caplog.records
