import base64
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from hyperconv.convolution import OMEGA_KINDS
from hyperconv.training import (
    TASKS,
    TrainConfig,
    predict_edge,
    predict_relation,
    train_classification,
    train_completion,
    train_prediction,
)

from helpers import planted_communities, planted_knowledge
from hyperconv.hypergraph import build_hypergraph


@pytest.fixture(scope="module")
def completion_model():
    kh = planted_knowledge(np.random.default_rng(7), nodes_per=10, num_edges=120)
    cfg = TrainConfig(
        task="completion", clusters=4, hidden_dim=16, epochs=12, patience=6,
        batch_size=32, seed=7,
    )
    model, _ = train_completion(kh, cfg)
    return model


@pytest.fixture(scope="module")
def prediction_model():
    rng = np.random.default_rng(11)
    edges, _ = planted_communities(rng, 2, 20, 70, 4, 6)
    h = build_hypergraph(edges, num_nodes=40)
    cfg = TrainConfig(
        task="prediction", clusters=4, hidden_dim=16, epochs=8, patience=4,
        batch_size=32, seed=11,
    )
    model, _ = train_prediction(h, cfg)
    return model


def test_relation_scores_survive_round_trip(completion_model, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(completion_model, path)
    again = load_checkpoint(path)
    for cand in ([0, 1, 2], [5], [12, 30]):
        assert predict_relation(again, cand) == predict_relation(completion_model, cand)


def test_edge_scores_survive_round_trip(prediction_model, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(prediction_model, path)
    again = load_checkpoint(path)
    for cand in ([0, 1, 2, 3], [1, 25], [4, 5, 6]):
        assert predict_edge(again, cand) == predict_edge(prediction_model, cand)


def test_every_field_restored_exactly(completion_model, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(completion_model, path)
    again = load_checkpoint(path)
    assert again.task == completion_model.task
    # the stored config pins the resolved omega default, so compare echoes
    assert again.config.to_dict() == completion_model.config.to_dict()
    assert again.structure.edge_members == completion_model.structure.edge_members
    np.testing.assert_array_equal(
        again.clusters.cluster_of, completion_model.clusters.cluster_of
    )
    np.testing.assert_array_equal(
        again.params.layer1.weight, completion_model.params.layer1.weight
    )
    np.testing.assert_array_equal(again.edge_init, completion_model.edge_init)
    assert again.relation_names == completion_model.relation_names
    assert again.entity_names == completion_model.entity_names
    assert again.params.head_weight is None


def test_head_arrays_stored_for_prediction(prediction_model, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(prediction_model, path)
    again = load_checkpoint(path)
    np.testing.assert_array_equal(
        again.params.head_weight, prediction_model.params.head_weight
    )
    np.testing.assert_array_equal(
        again.params.head_bias, prediction_model.params.head_bias
    )


def test_format_marker_checked(completion_model, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(completion_model, path)
    doc = json.loads(path.read_text("utf-8"))
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION

    doc["format"] = "something-else"
    path.write_text(json.dumps(doc), "utf-8")
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_checkpoint(path)

    doc["format"] = FORMAT_NAME
    doc["version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc), "utf-8")
    with pytest.raises(ValueError, match="unsupported"):
        load_checkpoint(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "absent.json")


def _corrupt(model, tmp_path, edit):
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text("utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), "utf-8")
    return path


def _resize(doc, name, rows=None, cols=None):
    arr = np.frombuffer(base64.b64decode(doc["arrays"][name]["data"]), dtype="<f8")
    arr = arr.reshape(doc["arrays"][name]["shape"])
    arr = arr[:rows] if cols is None else arr[..., :cols]
    doc["arrays"][name] = {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode("ascii"),
    }


def _expect_field_error(path, field):
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert "\n" not in message
    assert str(path) in message and field in message


def test_edge_init_rows_checked_against_structure(completion_model, tmp_path):
    path = _corrupt(completion_model, tmp_path, lambda d: _resize(d, "edge_init", rows=-1))
    _expect_field_error(path, "arrays.edge_init")


def test_node_x_shape_checked(completion_model, tmp_path):
    path = _corrupt(completion_model, tmp_path, lambda d: _resize(d, "node_x", cols=-1))
    _expect_field_error(path, "arrays.node_x")


def test_cluster_of_length_checked(completion_model, tmp_path):
    def edit(doc):
        doc["clusters"]["cluster_of"] = doc["clusters"]["cluster_of"][:-1]

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "clusters.cluster_of")


def test_w1_shape_checked_against_config(completion_model, tmp_path):
    def edit(doc):
        doc["config"]["hidden_dim"] += 1

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "arrays.W1")


def test_w2_rows_checked_against_relation_vocabulary(completion_model, tmp_path):
    path = _corrupt(completion_model, tmp_path, lambda d: _resize(d, "W2", rows=-1))
    _expect_field_error(path, "arrays.W2")


def test_head_weight_shape_checked(prediction_model, tmp_path):
    path = _corrupt(prediction_model, tmp_path, lambda d: _resize(d, "Wh", cols=-1))
    _expect_field_error(path, "arrays.Wh")


def test_unknown_config_key_rejected(completion_model, tmp_path):
    def edit(doc):
        doc["config"]["dropout"] = 0.5

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "config")


def test_out_of_range_node_id_rejected(completion_model, tmp_path):
    def edit(doc):
        doc["structure"]["edges"][0][0] = doc["structure"]["num_nodes"]

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "structure.edges")


def test_head_bias_shape_checked(prediction_model, tmp_path):
    path = _corrupt(prediction_model, tmp_path, lambda d: _resize(d, "bh", rows=1))
    _expect_field_error(path, "arrays.bh")


def _drop(*keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]

    return edit


def _set(value, *keys):
    def edit(doc):
        new = value(doc) if callable(value) else value
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = new

    return edit


SHORT_DATA = base64.b64encode(np.zeros(3).tobytes()).decode("ascii")


@pytest.mark.parametrize("edit, field", [
    (_drop("arrays", "W1"), "arrays.W1"),
    (_drop("structure"), "structure"),
    (_set("!!!!", "arrays", "W1", "data"), "arrays.W1"),
    (_set(SHORT_DATA, "arrays", "W2", "data"), "arrays.W2"),
    (_set(lambda doc: doc["clusters"]["k"], "clusters", "cluster_of", 0), "clusters.cluster_of"),
    (_set("tanh", "activations", 1), "activations"),
    (_set([-1], "arrays", "W1", "shape"), "arrays.W1"),
    (_set("a", "structure", "edges", 0, 0), "structure.edges"),
    (_set(35.5, "structure", "edges", 0, 0), "structure.edges"),
    (_set(1.7, "clusters", "cluster_of", 0), "clusters.cluster_of"),
    (_set("a", "clusters", "cluster_of", 0), "clusters.cluster_of"),
    (_set("prediction", "task"), "config.task"),
    (_set("40", "structure", "num_nodes"), "structure.num_nodes"),
    (_set("4", "clusters", "k"), "clusters.k"),
    (_set(5, "structure", "edges", 0), "structure.edges"),
    (_set(3, "clusters", "cluster_of"), "clusters.cluster_of"),
    (_set("0.05", "clusters", "balance_epsilon"), "clusters.balance_epsilon"),
    (_set(-1, "clusters", "balance_epsilon"), "clusters.balance_epsilon"),
    (_set(float("nan"), "clusters", "balance_epsilon"), "clusters.balance_epsilon"),
    (_set(0.1, "clusters", "balance_epsilon"), "clusters.balance_epsilon"),
    (_set(5, "relation_names"), "relation_names"),
    (_set([], "structure", "edges", 0), "structure.edges entry 0"),
    (_set(lambda doc: doc["structure"]["edges"][1][::-1], "structure", "edges", 1),
     "structure.edges entry 1"),
    (_set(lambda doc: doc["structure"]["edges"][2][:1] + doc["structure"]["edges"][2],
          "structure", "edges", 2), "structure.edges entry 2"),
], ids=["missing-array", "missing-section", "bad-base64", "data-short-of-shape",
        "cluster-out-of-range", "unknown-activation", "weight-not-a-matrix",
        "string-node-id", "float-node-id", "float-cluster-id", "string-cluster-id",
        "task-disagrees-with-config", "string-num-nodes", "string-k", "integer-edge",
        "integer-cluster-of", "string-balance-epsilon", "negative-balance-epsilon",
        "nan-balance-epsilon", "balance-epsilon-disagrees-with-config", "integer-relation-names",
        "empty-edge", "descending-edge", "repeated-member"])
def test_malformed_field_is_named(completion_model, tmp_path, edit, field):
    _expect_field_error(_corrupt(completion_model, tmp_path, edit), field)


def test_non_json_file_is_named(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not a checkpoint\n", "utf-8")
    with pytest.raises(ValueError, match="not a JSON document") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and "\n" not in str(info.value)


def _round_trip_data(task, rng):
    if task == "prediction":
        edges, _ = planted_communities(rng, 2, 8, 40, 3, 4)
        return build_hypergraph(edges, num_nodes=16)
    return planted_knowledge(rng, num_communities=3, nodes_per=6, num_edges=45)


TRAIN = {"completion": train_completion, "classification": train_classification,
         "prediction": train_prediction}


@pytest.mark.parametrize("bilinear", [True, False], ids=["bilinear", "linear"])
@pytest.mark.parametrize("omega", OMEGA_KINDS)
@pytest.mark.parametrize("task", TASKS)
@settings(max_examples=5)
@given(data=st.data())
def test_save_load_round_trip_property(task, omega, bilinear, data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    cfg = TrainConfig(task=task, clusters=2, omega=omega, bilinear=bilinear, hidden_dim=4,
                      epochs=2, patience=1, batch_size=16, seed=seed)
    model, _ = TRAIN[task](_round_trip_data(task, np.random.default_rng(seed)), cfg)
    n = model.structure.num_nodes
    queries = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5),
                                 min_size=1, max_size=3), label="queries")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
    assert again.task == model.task
    assert again.config == model.config
    assert again.structure.edge_members == model.structure.edge_members
    assert again.relation_names == model.relation_names
    assert again.entity_names == model.entity_names
    assert [layer.activation for layer in again.layers] == [
        layer.activation for layer in model.layers]
    assert (again.clusters.k, again.clusters.balance_epsilon) == (
        model.clusters.k, model.clusters.balance_epsilon)
    pairs = [(again.clusters.cluster_of, model.clusters.cluster_of),
             (again.edge_init, model.edge_init), (again.node_x, model.node_x)]
    pairs += [(again.params.trainable()[name], w)
              for name, w in model.params.trainable().items()]
    assert again.params.trainable().keys() == model.params.trainable().keys()
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for q in queries:
        if task == "prediction":
            assert predict_edge(again, q) == predict_edge(model, q)
        else:
            assert predict_relation(again, q) == predict_relation(model, q)
