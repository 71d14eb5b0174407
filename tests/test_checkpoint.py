import base64
import dataclasses
import errno
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv import checkpoint
from hyperconv.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from hyperconv.convolution import OMEGA_KINDS
from hyperconv.partition import ClusterAssignment
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
    path = tmp_path / "model.ckpt"
    save_checkpoint(completion_model, path)
    again = load_checkpoint(path)
    for cand in ([0, 1, 2], [5], [12, 30]):
        assert predict_relation(again, cand) == predict_relation(completion_model, cand)


def test_edge_scores_survive_round_trip(prediction_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(prediction_model, path)
    again = load_checkpoint(path)
    for cand in ([0, 1, 2, 3], [1, 25], [4, 5, 6]):
        assert predict_edge(again, cand) == predict_edge(prediction_model, cand)


def test_every_field_restored_exactly(completion_model, tmp_path):
    path = tmp_path / "model.ckpt"
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
    path = tmp_path / "model.ckpt"
    save_checkpoint(prediction_model, path)
    again = load_checkpoint(path)
    np.testing.assert_array_equal(
        again.params.head_weight, prediction_model.params.head_weight
    )
    np.testing.assert_array_equal(
        again.params.head_bias, prediction_model.params.head_bias
    )


def _entries(node):
    """Every packed entry in the header ``node``, once per place it appears."""
    if isinstance(node, dict):
        if {"offset", "bytes"} & node.keys():
            yield node
        else:
            for value in node.values():
                yield from _entries(value)


def _read(path) -> dict:
    """The header of the checkpoint at ``path``, each packed entry holding
    its array's ``bytes`` in place of its offset."""
    with open(path, "rb") as fh:
        doc = json.loads(fh.readline())
        data = fh.read()
    for entry in _entries(doc):
        start = entry.pop("offset")
        entry["bytes"] = data[start:start + 8 * int(np.prod(entry["shape"]))]
    return doc


def _write(path, doc: dict) -> None:
    """Write a header from ``_read`` back, its arrays back to back in header
    order; an entry an edit gave an offset keeps it."""
    data = bytearray()
    for entry in _entries(doc):
        if "bytes" in entry:
            entry.setdefault("offset", len(data))
            data += entry.pop("bytes")
    path.write_bytes(json.dumps(doc, sort_keys=True).encode("ascii") + b"\n" + data)


def test_format_marker_checked(completion_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(completion_model, path)
    doc = _read(path)
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION

    doc["format"] = "something-else"
    _write(path, doc)
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_checkpoint(path)

    doc = _read(path)
    doc["format"] = FORMAT_NAME
    doc["version"] = FORMAT_VERSION + 1
    _write(path, doc)
    with pytest.raises(ValueError, match="unsupported"):
        load_checkpoint(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "absent.ckpt")


def _corrupt(model, tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    doc = _read(path)
    edit(doc)
    _write(path, doc)
    return path


def _section(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _packed(doc, *keys, dtype="<f8"):
    """A copy of the packed array at ``keys``."""
    field = _section(doc, keys)
    return np.frombuffer(field["bytes"], dtype=dtype).reshape(field["shape"]).copy()


def _store(doc, arr, *keys, dtype="<f8"):
    arr = np.ascontiguousarray(arr, dtype=dtype)
    field = _section(doc, keys)
    field["shape"] = list(arr.shape)
    field["bytes"] = arr.tobytes()


def _resize(doc, name, rows=None, cols=None):
    arr = _packed(doc, "arrays", name)
    _store(doc, arr[:rows] if cols is None else arr[..., :cols], "arrays", name)


def _rewrite(change, *keys):
    """An edit replacing the packed ids at ``keys`` with ``change(ids, doc)``."""
    def edit(doc):
        _store(doc, change(_packed(doc, *keys, dtype="<i8"), doc), *keys, dtype="<i8")

    return edit


def _put(index, value, *keys):
    """An edit setting entry ``index`` of the packed ids at ``keys`` to
    ``value``, or to ``value(doc)`` when it is callable."""
    def change(ids, doc):
        ids[index] = value(doc) if callable(value) else value
        return ids

    return _rewrite(change, *keys)


def _edge(ids, doc, e):
    """Edge ``e``'s slice of the pins."""
    ptr = _packed(doc, "structure", "edge_ptr", dtype="<i8")
    return ids[ptr[e]:ptr[e + 1]]


def _reverse_edge(ids, doc):
    members = _edge(ids, doc, 1)
    members[:] = members[::-1].copy()
    return ids


def _repeat_member(ids, doc):
    members = _edge(ids, doc, 2)
    members[1] = members[0]
    return ids


def _expect_field_error(path, field):
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert "\n" not in message
    assert message.count(str(path)) == 1 and field in message


def test_edge_init_rows_checked_against_structure(completion_model, tmp_path):
    # edge_init is rebuilt from the edge types, one per structure edge
    edit = _rewrite(lambda ids, doc: ids[:-1], "structure", "edge_type")
    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "structure.edge_type")


def test_node_x_shape_checked(completion_model, tmp_path):
    model = dataclasses.replace(completion_model, node_x=completion_model.node_x[:, :-1])
    with pytest.raises(ValueError, match="node_x"):
        save_checkpoint(model, tmp_path / "model.ckpt")


def test_cluster_of_length_checked(completion_model, tmp_path):
    edit = _rewrite(lambda ids, doc: ids[:-1], "clusters", "cluster_of")
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

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "config: dropout")


def test_config_fields_all_present_with_json_types(completion_model, tmp_path):
    # a float width and a missing patience used to load as 16.0 and 20
    def edit(doc):
        doc["config"]["hidden_dim"] = float(doc["config"]["hidden_dim"])
        del doc["config"]["patience"]

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "config: hidden_dim")


def test_out_of_range_node_id_rejected(completion_model, tmp_path):
    edit = _put(0, lambda doc: doc["structure"]["num_nodes"], "structure", "pins")
    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "structure.pins")


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


def _as_float_bytes(ids, doc):
    """The ids packed as float64, read back as int64."""
    return ids.astype("<f8").view("<i8")


@pytest.mark.parametrize("edit, field", [
    (_drop("arrays", "W1"), "arrays.W1"),
    (_drop("structure"), "structure"),
    (_set("!!!!", "arrays", "W1", "data"), "arrays.W1"),
    (_set(np.zeros(3).tobytes(), "arrays", "W2", "bytes"), "arrays.W2"),
    (_put(0, lambda doc: doc["config"]["clusters"], "clusters", "cluster_of"),
     "clusters.cluster_of"),
    (_set("tanh", "activations", 1), "activations"),
    (_set([-1], "arrays", "W1", "shape"), "arrays.W1"),
    (_rewrite(_as_float_bytes, "structure", "pins"), "structure.pins"),
    (_rewrite(_as_float_bytes, "clusters", "cluster_of"), "clusters.cluster_of"),
    (_set("prediction", "task"), "config.task"),
    (_set("40", "structure", "num_nodes"), "structure.num_nodes"),
    (_set("4", "config", "clusters"), "config"),
    (_set(5, "structure", "edge_ptr"), "structure.edge_ptr"),
    (_set(3, "clusters", "cluster_of"), "clusters.cluster_of"),
    (_set("0.05", "config", "balance_epsilon"), "config"),
    (_drop("config", "patience"), "config: patience"),
    (_set(True, "config", "clusters"), "config: clusters"),
    (_set(1, "config", "bilinear"), "config: bilinear"),
    (_set(0, "config", "omega"), "config: omega"),
    (_set("harmonic", "config", "agg"), "field config: unknown aggregation 'harmonic'"),
    (_set([0.7, 0.3], "config", "split_ratios"), "config: split_ratios"),
    (_set([], "config"), "config"),
    (_set(-1, "config", "balance_epsilon"), "config"),
    (_set(float("nan"), "config", "balance_epsilon"), "config"),
    (_set(5, "relation_names"), "relation_names"),
    (_put(1, 0, "structure", "edge_ptr"), "structure.edge_ptr"),
    (_rewrite(_reverse_edge, "structure", "pins"), "structure.pins"),
    (_rewrite(_repeat_member, "structure", "pins"), "structure.pins"),
    (_set("!!!!", "structure", "edge_ptr", "data"), "structure.edge_ptr"),
    (_set("!!!!", "structure", "pins", "data"), "structure.pins"),
    (_set("!!!!", "structure", "edge_type", "data"), "structure.edge_type"),
    (_set("!!!!", "clusters", "cluster_of", "data"), "clusters.cluster_of"),
    (_rewrite(lambda ids, doc: ids.reshape(1, -1), "structure", "edge_ptr"),
     "structure.edge_ptr"),
    (_rewrite(lambda ids, doc: ids.reshape(1, -1), "structure", "pins"), "structure.pins"),
    (_put(-1, lambda doc: doc["structure"]["pins"]["shape"][0] + 1, "structure", "edge_ptr"),
     "structure.edge_ptr"),
    (_put(0, -1, "structure", "pins"), "structure.pins"),
    (_put(0, lambda doc: len(doc["relation_names"]), "structure", "edge_type"),
     "structure.edge_type"),
    (_put(0, 1, "structure", "edge_ptr"), "structure.edge_ptr"),
    (_set(None, "entity_names"), "entity_names"),
    (_set(lambda doc: doc["entity_names"][:-1], "entity_names"), "entity_names"),
    (_set(lambda doc: doc["relation_names"][:1] * len(doc["relation_names"]),
          "relation_names"), "relation_names"),
    (_set(1 << 40, "arrays", "W1", "offset"), "arrays.W1.offset"),
    (_set(-8, "arrays", "W1", "offset"), "arrays.W1.offset"),
    (_set(4, "arrays", "W2", "offset"), "arrays.W2.offset"),
    (_set("0", "structure", "pins", "offset"), "structure.pins.offset"),
    (_set(0, "arrays", "W2", "offset"), "arrays.W2"),
    (_drop("arrays", "W1", "shape"), "arrays.W1"),
    (_set(lambda doc: doc["structure"]["pins"]["bytes"][:-8], "structure", "pins", "bytes"),
     "structure.pins of shape"),
    (_set(lambda doc: doc["structure"]["pins"]["bytes"] + bytes(8), "structure", "pins",
          "bytes"), "structure.pins"),
], ids=["missing-array", "missing-section", "bad-base64", "data-short-of-shape",
        "cluster-out-of-range", "unknown-activation", "weight-not-a-matrix",
        "float-node-id", "float-cluster-id", "task-disagrees-with-config",
        "string-num-nodes", "string-k", "integer-edge", "integer-cluster-of",
        "string-balance-epsilon", "missing-patience", "boolean-k", "integer-bilinear",
        "integer-omega", "harmonic-agg", "two-split-ratios", "list-config",
        "negative-balance-epsilon", "nan-balance-epsilon",
        "integer-relation-names", "empty-edge", "descending-edge", "repeated-member",
        "edge-ptr-bad-base64", "pins-bad-base64", "edge-type-bad-base64",
        "cluster-of-bad-base64", "edge-ptr-not-one-dimensional",
        "pins-not-one-dimensional", "edge-ptr-out-of-range", "negative-node-id",
        "edge-type-out-of-range", "edge-ptr-not-from-zero", "null-entity-names",
        "short-entity-names", "repeated-relation-name", "offset-outside-file",
        "negative-offset", "misaligned-offset", "string-offset", "overlapping-arrays",
        "missing-shape", "last-array-cut-short", "bytes-left-after-last-array"])
def test_malformed_field_is_named(completion_model, tmp_path, edit, field):
    _expect_field_error(_corrupt(completion_model, tmp_path, edit), field)


def _as_task(model, task):
    """``model`` relabelled as a model of ``task``, which has the same layers."""
    return dataclasses.replace(model, task=task,
                               config=dataclasses.replace(model.config, task=task))


@pytest.mark.parametrize("task, activations", [
    ("completion", ["relu", "relu"]), ("classification", ["relu", "relu"]),
    ("prediction", ["relu", "identity"])])
def test_activations_must_be_the_tasks(completion_model, prediction_model, tmp_path,
                                       task, activations):
    model = prediction_model if task == "prediction" else _as_task(completion_model, task)
    path = _corrupt(model, tmp_path, _set(activations, "activations"))
    _expect_field_error(path, "activations")


def _nan_at(name):
    def edit(doc):
        arr = _packed(doc, "arrays", name)
        arr.flat[0] = np.nan
        _store(doc, arr, "arrays", name)

    return edit


@pytest.mark.parametrize("name", ["W1", "W2", "Wh", "bh"])
def test_non_finite_array_rejected(prediction_model, tmp_path, name):
    _expect_field_error(_corrupt(prediction_model, tmp_path, _nan_at(name)), f"arrays.{name}")


def test_array_of_another_task_rejected(completion_model, tmp_path):
    edit = _set(lambda doc: doc["arrays"]["W2"], "arrays", "Wh")
    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "arrays.Wh")


def test_save_refuses_activation_not_the_tasks(completion_model, tmp_path):
    layer2 = dataclasses.replace(completion_model.params.layer2, activation="relu")
    params = dataclasses.replace(completion_model.params, layer2=layer2)
    model = dataclasses.replace(completion_model, params=params)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="activations") as info:
        save_checkpoint(model, path)
    assert "\n" not in str(info.value) and not path.exists()


def test_version_1_document_rejected(completion_model, tmp_path):
    path = _corrupt(completion_model, tmp_path, _set(1, "version"))
    with pytest.raises(ValueError, match="version 1 unsupported") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_version_2_document_rejected(completion_model, tmp_path):
    # version 2 was one JSON document, without a newline, holding each
    # array as base64 ``data``
    path = tmp_path / "model.ckpt"
    save_checkpoint(completion_model, path)
    doc = _read(path)
    for entry in _entries(doc):
        entry["data"] = base64.b64encode(entry.pop("bytes")).decode("ascii")
    doc["version"] = 2
    path.write_text(json.dumps(doc, sort_keys=True), "utf-8")
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: checkpoint version 2 unsupported (expected 3)"


@pytest.fixture(scope="module")
def saved_bytes(completion_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "model.ckpt"
    save_checkpoint(completion_model, path)
    return path.read_bytes()


def _boundaries(saved: bytes) -> list[int]:
    """The cuts on either side of the header's newline and of each array's end."""
    header = saved[:saved.index(b"\n")]
    start = len(header) + 1
    ends = [start + entry["offset"] + 8 * int(np.prod(entry["shape"]))
            for entry in _entries(json.loads(header))]
    return sorted({cut for end in [start - 1, start, *ends] for cut in (end - 1, end)
                   if 0 <= cut < len(saved)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_strict_prefix_is_rejected(saved_bytes, data):
    cut = data.draw(st.integers(0, len(saved_bytes) - 1)
                    | st.sampled_from(_boundaries(saved_bytes)), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(saved_bytes[:cut])
        _expect_field_error(path, "")


@pytest.mark.parametrize("task", ["completion", "prediction"])
def test_loaded_arrays_are_native_and_contiguous(completion_model, prediction_model,
                                                 tmp_path, task):
    path = tmp_path / "model.ckpt"
    save_checkpoint(prediction_model if task == "prediction" else completion_model, path)
    again = load_checkpoint(path)
    ids = [again.structure.edge_ptr, again.structure.pins, again.clusters.cluster_of]
    # the weights are the buffers the file was read into; the ids are held
    # read-only by the structure and the assignment
    for arr, writeable in [*((w, True) for w in again.params.trainable().values()),
                           *((a, False) for a in ids)]:
        assert arr.flags.c_contiguous and arr.flags.aligned
        assert arr.flags.writeable == writeable and arr.dtype.isnative


@pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, "No space left on device"),
                                     KeyboardInterrupt()], ids=["disk-full", "interrupt"])
def test_failed_save_keeps_the_old_checkpoint(completion_model, prediction_model, tmp_path,
                                              monkeypatch, failure):
    path = tmp_path / "model.ckpt"
    save_checkpoint(prediction_model, path)
    before = path.read_bytes()

    def open_failing_after_header(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def write_header_only(data):
            if fh.tell():
                raise failure
            return write(data)

        fh.write = write_header_only
        return fh

    monkeypatch.setattr(checkpoint, "open", open_failing_after_header, raising=False)
    with pytest.raises(type(failure)):
        save_checkpoint(completion_model, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    again = load_checkpoint(path)
    assert predict_edge(again, [0, 1, 2, 3]) == predict_edge(prediction_model, [0, 1, 2, 3])


def test_saved_document_stores_no_derived_field(completion_model, prediction_model, tmp_path):
    for model, stored in ((completion_model, dict), (prediction_model, type(None))):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        doc = _read(path)
        assert set(doc["structure"]) == {"num_nodes", "edge_ptr", "pins", "edge_type"}
        assert type(doc["structure"]["edge_type"]) is stored
        assert set(doc["clusters"]) == {"cluster_of"}
        assert not {"edge_init", "node_x"} & set(doc["arrays"])


def test_prediction_edge_type_must_be_null(prediction_model, tmp_path):
    edit = _set(lambda doc: doc["structure"]["pins"], "structure", "edge_type")
    _expect_field_error(_corrupt(prediction_model, tmp_path, edit), "structure.edge_type")


def _moved_row(arr):
    arr = arr.copy()
    arr[0] = np.roll(arr[0], 1)
    return arr


@pytest.mark.parametrize("name", ["node_x", "edge_init"])
def test_save_refuses_features_not_derived(completion_model, tmp_path, name):
    model = dataclasses.replace(completion_model,
                                **{name: _moved_row(getattr(completion_model, name))})
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=name) as info:
        save_checkpoint(model, path)
    assert "\n" not in str(info.value) and not path.exists()


def test_save_refuses_clusters_disagreeing_with_config(completion_model, tmp_path):
    clusters = ClusterAssignment(completion_model.clusters.cluster_of, 8)
    model = dataclasses.replace(completion_model, clusters=clusters)
    with pytest.raises(ValueError, match="clusters"):
        save_checkpoint(model, tmp_path / "model.ckpt")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_single_bad_pin_is_named(completion_model, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(completion_model, path)
        doc = _read(path)
        pins = _packed(doc, "structure", "pins", dtype="<i8")
        ptr = _packed(doc, "structure", "edge_ptr", dtype="<i8")
        n = doc["structure"]["num_nodes"]
        if data.draw(st.booleans(), label="swap"):
            # positions whose right neighbour is in the same edge
            inner = np.setdiff1d(np.arange(pins.size - 1), ptr[1:] - 1)
            i = int(inner[data.draw(st.integers(0, inner.size - 1), label="pair")])
            pins[[i, i + 1]] = pins[[i + 1, i]]
        else:
            i = data.draw(st.integers(0, pins.size - 1), label="pin")
            pins[i] = data.draw(st.integers(-2**63, -1) | st.integers(n, 2**63 - 1),
                                label="id")
        _store(doc, pins, "structure", "pins", dtype="<i8")
        _write(path, doc)
        _expect_field_error(path, "structure.pins")


def test_non_json_file_is_named(tmp_path):
    path = tmp_path / "model.ckpt"
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
        path = Path(tmp) / "model.ckpt"
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
