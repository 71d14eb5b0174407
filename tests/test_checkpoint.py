import base64
import dataclasses
import errno
import json
import math
import reprlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv import checkpoint, features, training
from hyperconv.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from hyperconv.convolution import OMEGA_KINDS
from hyperconv.partition import BALANCE_EPSILON, ClusterAssignment
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
from hyperconv.hypergraph import KnowledgeHypergraph, build_hypergraph


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


def test_relational_load_hashes_each_vocabulary_once(completion_model, tmp_path, monkeypatch):
    # the loader checks each vocabulary in _distinct_strings and keeps the
    # edge features as ids: no KnowledgeHypergraph, whose constructor hashes
    # the names again, and no dense edge table, at load or at a query
    path = tmp_path / "model.ckpt"
    save_checkpoint(completion_model, path)
    checked, distinct = [], checkpoint._distinct_strings

    def spy(what, names):
        checked.append(what)
        distinct(what, names)

    def refuse(*args, **kwargs):
        raise AssertionError("the load reached a typed structure or a dense feature")

    monkeypatch.setattr(checkpoint, "_distinct_strings", spy)
    monkeypatch.setattr(KnowledgeHypergraph, "__init__", refuse)
    monkeypatch.setattr(features.EdgeIds, "dense", refuse)
    for module in (features, training):
        for name in ("knowledge_edge_init", "edge_cluster_onehot"):
            monkeypatch.setattr(module, name, refuse)
    again = load_checkpoint(path)
    answer = predict_relation(again, [0, 1, 2])
    monkeypatch.undo()
    assert checked == [f"{path}: field relation_names", f"{path}: field entity_names"]
    assert answer == predict_relation(completion_model, [0, 1, 2])


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
def _shapes(doc):
    """Each packed array's shape, in the order the arrays follow the header:
    the ids' from ``counts``, the weights' from the config and the relation
    count."""
    config, counts = doc["config"], doc["counts"]
    k, h = config["clusters"], config["hidden_dim"]
    power = 2 if config["bilinear"] else 1
    shapes = {"edge_ptr": (counts["edges"] + 1,), "pins": (counts["pins"],)}
    if config["task"] == "prediction":
        return {**shapes, "cluster_of": (counts["nodes"],), "W1": (h, (2 * k) ** power),
                "W2": (h, (h + k) ** power), "Wh": (2, h), "bh": (2,)}
    r = len(doc["relation_names"])
    return {**shapes, "edge_type": (counts["edges"],), "cluster_of": (counts["nodes"],),
            "W1": (h, (r + 2 * k) ** power), "W2": (r, (h + k) ** power)}


def _read(path):
    """The header of the checkpoint at ``path`` and a copy of each array
    after it, in file order."""
    with open(path, "rb") as fh:
        doc = json.loads(fh.readline())
        data = fh.read()
    arrays, start = {}, 0
    for name, shape in _shapes(doc).items():
        end = start + 8 * math.prod(shape)
        dtype = "<i8" if name in ("edge_ptr", "pins", "edge_type", "cluster_of") else "<f8"
        arrays[name] = np.frombuffer(data[start:end], dtype).reshape(shape).copy()
        start = end
    return doc, arrays


def _write(path, doc: dict, arrays: dict) -> None:
    """Write a header and the arrays back, their bytes back to back in the
    dict's order; an entry may be raw bytes."""
    data = b"".join(a if isinstance(a, bytes) else a.tobytes() for a in arrays.values())
    path.write_bytes(json.dumps(doc, sort_keys=True).encode("ascii") + b"\n" + data)


def test_format_marker_checked(completion_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(completion_model, path)
    doc, arrays = _read(path)
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION

    doc["format"] = "something-else"
    _write(path, doc, arrays)
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_checkpoint(path)

    doc["format"] = FORMAT_NAME
    doc["version"] = FORMAT_VERSION + 1
    _write(path, doc, arrays)
    with pytest.raises(ValueError, match="unsupported"):
        load_checkpoint(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "absent.ckpt")


def _corrupt(model, tmp_path, edit):
    """The checkpoint of ``model`` after ``edit(doc, arrays)``."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    doc, arrays = _read(path)
    edit(doc, arrays)
    _write(path, doc, arrays)
    return path


def _set(value, *keys):
    """An edit setting the header field at ``keys`` to ``value``, or to
    ``value(doc)`` when it is callable."""
    def edit(doc, arrays):
        new = value(doc) if callable(value) else value
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = new

    return edit


def _drop(*keys):
    def edit(doc, arrays):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]

    return edit


def _array(change, name):
    """An edit replacing array ``name`` with ``change(array, arrays)``."""
    def edit(doc, arrays):
        arrays[name] = change(arrays[name], arrays)

    return edit


def _put(index, value, name):
    """An edit setting entry ``index`` of array ``name`` to ``value``, or to
    ``value(doc)`` when it is callable."""
    def edit(doc, arrays):
        arrays[name][index] = value(doc) if callable(value) else value

    return edit


def _edge(ids, arrays, e):
    """Edge ``e``'s slice of the pins."""
    ptr = arrays["edge_ptr"]
    return ids[ptr[e]:ptr[e + 1]]


def _reverse_edge(ids, arrays):
    members = _edge(ids, arrays, 1)
    members[:] = members[::-1].copy()
    return ids


def _repeat_member(ids, arrays):
    members = _edge(ids, arrays, 2)
    members[1] = members[0]
    return ids


def _as_float_bytes(ids, arrays):
    """The ids packed as float64, read back as int64."""
    return ids.astype("<f8").view("<i8")


def _shift(key, change):
    """An edit adding ``change`` to ``counts[key]``, the arrays left as saved."""
    return _set(lambda doc: doc["counts"][key] + change, "counts", key)


def _expect_field_error(path, field):
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert "\n" not in message
    assert message.count(str(path)) == 1 and field in message


# the one message for shapes that do not account for the bytes after the header
_SIZE_ERROR = "fields counts, config and relation_names account for"


def test_edge_init_rows_checked_against_structure(completion_model, tmp_path):
    # edge_init is rebuilt from the edge types, one per edge of the count
    path = _corrupt(completion_model, tmp_path, _shift("edges", -1))
    _expect_field_error(path, _SIZE_ERROR)


def test_node_x_shape_checked(completion_model, tmp_path):
    model = dataclasses.replace(completion_model, node_x=completion_model.node_x[:, :-1])
    with pytest.raises(ValueError, match="node_x"):
        save_checkpoint(model, tmp_path / "model.ckpt")


def test_cluster_of_length_checked(prediction_model, tmp_path):
    # one cluster id per node of the count
    path = _corrupt(prediction_model, tmp_path, _shift("nodes", -1))
    _expect_field_error(path, _SIZE_ERROR)


def test_w1_shape_checked_against_config(completion_model, tmp_path):
    path = _corrupt(completion_model, tmp_path,
                    _set(lambda doc: doc["config"]["hidden_dim"] + 1, "config", "hidden_dim"))
    _expect_field_error(path, _SIZE_ERROR)


def test_w2_rows_checked_against_relation_vocabulary(completion_model, tmp_path):
    path = _corrupt(completion_model, tmp_path,
                    _set(lambda doc: doc["relation_names"][:-1], "relation_names"))
    _expect_field_error(path, _SIZE_ERROR)


def test_head_weight_shape_checked(prediction_model, tmp_path):
    path = _corrupt(prediction_model, tmp_path, _array(lambda w, arrays: w[:, :-1], "Wh"))
    _expect_field_error(path, _SIZE_ERROR)


def test_unknown_config_key_rejected(completion_model, tmp_path):
    _expect_field_error(_corrupt(completion_model, tmp_path, _set(0.5, "config", "dropout")),
                        "config: dropout")


def test_config_fields_all_present_with_json_types(completion_model, tmp_path):
    # a float width and a missing patience used to load as 16.0 and 20
    def edit(doc, arrays):
        doc["config"]["hidden_dim"] = float(doc["config"]["hidden_dim"])
        del doc["config"]["patience"]

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "config: hidden_dim")


def test_out_of_range_node_id_rejected(completion_model, tmp_path):
    edit = _put(0, lambda doc: doc["counts"]["nodes"], "pins")
    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "array pins")


def test_head_bias_shape_checked(prediction_model, tmp_path):
    path = _corrupt(prediction_model, tmp_path, _array(lambda b, arrays: b[:1], "bh"))
    _expect_field_error(path, _SIZE_ERROR)


@pytest.mark.parametrize("edit, field", [
    (_array(lambda w, arrays: b"", "W1"), _SIZE_ERROR),
    (_drop("counts"), "field counts is missing"),
    (_array(lambda w, arrays: b"!!!!", "W1"), _SIZE_ERROR),
    (_array(lambda w, arrays: w[:3], "W2"), _SIZE_ERROR),
    (_put(0, lambda doc: doc["config"]["clusters"], "cluster_of"), "array cluster_of"),
    (_array(_as_float_bytes, "pins"), "array pins"),
    (_array(_as_float_bytes, "cluster_of"), "array cluster_of"),
    (_set("4", "config", "clusters"), "config"),
    # a key version 5 held, of any value, is no field now
    (_set("0.05", "config", "balance_epsilon"), "field config: balance_epsilon is not a field"),
    (_drop("config", "patience"), "config: patience"),
    (_set(True, "config", "clusters"), "config: clusters"),
    (_set(1, "config", "bilinear"), "config: bilinear"),
    (_set(0, "config", "omega"), "config: omega"),
    (_set("harmonic", "config", "agg"), "field config: agg is not a field"),
    (_set([0.7, 0.3], "config", "split_ratios"), "config: split_ratios"),
    (_set([], "config"), "config"),
    (_set(-1, "config", "balance_epsilon"), "field config: balance_epsilon is not a field"),
    (_set(float("nan"), "config", "balance_epsilon"),
     "field config: balance_epsilon is not a field"),
    (_set(float("inf"), "config", "balance_epsilon"),
     "field config: balance_epsilon is not a field"),
    (_set(float("nan"), "config", "learning_rate"),
     "field config: learning_rate must be finite and positive, got nan"),
    (_set(5, "relation_names"), "relation_names"),
    (_put(1, 0, "edge_ptr"), "array edge_ptr"),
    (_array(_reverse_edge, "pins"), "array pins"),
    (_array(_repeat_member, "pins"), "array pins"),
    (_array(lambda ids, arrays: b"!!!!", "edge_ptr"), _SIZE_ERROR),
    (_array(lambda ids, arrays: b"!!!!", "pins"), _SIZE_ERROR),
    (_array(lambda ids, arrays: b"!!!!", "edge_type"), _SIZE_ERROR),
    (_array(lambda ids, arrays: b"!!!!", "cluster_of"), _SIZE_ERROR),
    (_put(-1, lambda doc: doc["counts"]["pins"] + 1, "edge_ptr"), "array edge_ptr"),
    (_put(0, -1, "pins"), "array pins"),
    (_put(0, lambda doc: len(doc["relation_names"]), "edge_type"), "array edge_type"),
    (_put(0, 1, "edge_ptr"), "array edge_ptr"),
    (_set(None, "entity_names"), "entity_names"),
    (_set(lambda doc: doc["entity_names"][:-1], "entity_names"), "field entity_names"),
    (_set(lambda doc: doc["relation_names"][:1] * len(doc["relation_names"]),
          "relation_names"), "field relation_names holds 'r0' at entry 1"),
    (_drop("counts", "pins"), "field counts.pins is missing"),
    (_array(lambda ids, arrays: ids[:-1], "pins"), _SIZE_ERROR),
    (_array(lambda ids, arrays: np.append(ids, 0), "pins"), _SIZE_ERROR),
    (_set(None, "counts", "edges"), "field counts.edges is None"),
    (_set(40.0, "counts", "nodes"), "field counts.nodes is 40.0"),
    (_set(-1, "counts", "pins"), "field counts.pins is -1"),
    (_set(True, "counts", "edges"), "field counts.edges is True"),
    (_set("7", "counts", "pins"), "field counts.pins is '7'"),
], ids=["missing-array", "missing-section", "bad-base64", "data-short-of-shape",
        "cluster-out-of-range", "float-node-id", "float-cluster-id", "string-k",
        "string-balance-epsilon", "missing-patience", "boolean-k", "integer-bilinear",
        "integer-omega", "harmonic-agg", "two-split-ratios", "list-config",
        "negative-balance-epsilon", "nan-balance-epsilon", "infinite-balance-epsilon",
        "nan-learning-rate", "integer-relation-names", "empty-edge", "descending-edge",
        "repeated-member", "edge-ptr-bad-base64", "pins-bad-base64", "edge-type-bad-base64",
        "cluster-of-bad-base64", "edge-ptr-out-of-range", "negative-node-id",
        "edge-type-out-of-range", "edge-ptr-not-from-zero", "null-entity-names",
        "short-entity-names", "repeated-relation-name", "missing-shape",
        "last-array-cut-short", "bytes-left-after-last-array", "null-array", "float-shape",
        "negative-count", "boolean-count", "string-count"])
def test_malformed_field_is_named(completion_model, tmp_path, edit, field):
    _expect_field_error(_corrupt(completion_model, tmp_path, edit), field)


def _nan_at(name):
    def change(w, arrays):
        w.flat[0] = np.nan
        return w

    return _array(change, name)


@pytest.mark.parametrize("name", ["W1", "W2", "Wh", "bh"])
def test_non_finite_array_rejected(prediction_model, tmp_path, name):
    _expect_field_error(_corrupt(prediction_model, tmp_path, _nan_at(name)), f"array {name}")


def test_relational_checkpoint_without_relations_names_the_array(completion_model, tmp_path):
    # with no relation and no edge every size adds up, and W2 has no rows
    def edit(doc, arrays):
        hidden, k = doc["config"]["hidden_dim"], doc["config"]["clusters"]
        doc["relation_names"] = []
        doc["counts"].update(edges=0, pins=0)
        arrays.update(edge_ptr=np.zeros(1, "<i8"), pins=np.zeros(0, "<i8"),
                      edge_type=np.zeros(0, "<i8"), W1=np.zeros((hidden, (2 * k) ** 2)),
                      W2=np.zeros((0, (hidden + k) ** 2)))

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), "array W2: weight must")


def test_array_of_another_task_rejected(completion_model, tmp_path):
    # a prediction head's bytes after a completion model's weights
    def edit(doc, arrays):
        arrays.update(Wh=np.zeros((2, doc["config"]["hidden_dim"])), bh=np.zeros(2))

    _expect_field_error(_corrupt(completion_model, tmp_path, edit), _SIZE_ERROR)


def test_prediction_edge_type_must_be_null(prediction_model, tmp_path):
    # a prediction model has no edge types: their bytes are left over
    def edit(doc, arrays):
        arrays["edge_type"] = np.zeros(doc["counts"]["edges"], "<i8")

    _expect_field_error(_corrupt(prediction_model, tmp_path, edit), _SIZE_ERROR)


def test_save_refuses_activation_not_the_tasks(completion_model, tmp_path):
    layer2 = dataclasses.replace(completion_model.params.layer2, activation="relu")
    params = dataclasses.replace(completion_model.params, layer2=layer2)
    model = dataclasses.replace(completion_model, params=params)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="activations") as info:
        save_checkpoint(model, path)
    assert "\n" not in str(info.value) and not path.exists()


def _old_file(path, version: int) -> None:
    """Rewrite the checkpoint at ``path`` as version 2, 3 or 4 stored it:
    ``structure``, ``clusters`` and ``arrays`` sections in place of
    ``counts``, each array's entry its shape (4), or an object holding its
    shape and its offset (3) or its base64 ``data`` in one document without
    a newline (2). Version 3 also stored the task, activations and node
    count."""
    doc, arrays = _read(path)
    counts = doc.pop("counts")
    doc["version"] = version
    data = bytearray()
    sections = {"structure": ("edge_ptr", "pins", "edge_type"),
                "clusters": ("cluster_of",), "arrays": ("W1", "W2", "Wh", "bh")}
    for section, keys in sections.items():
        doc[section] = {"edge_type": None} if section == "structure" else {}
        for key in filter(arrays.__contains__, keys):
            shape, raw = list(arrays[key].shape), arrays[key].tobytes()
            doc[section][key] = {2: {"shape": shape, "data": base64.b64encode(raw).decode()},
                                 3: {"shape": shape, "offset": len(data)}, 4: shape}[version]
            data += raw
    if version == 3:
        doc.update(task=doc["config"]["task"], activations=["relu", "identity"])
        doc["structure"]["num_nodes"] = counts["nodes"]
    header = json.dumps(doc, sort_keys=True).encode("ascii")
    path.write_bytes(header if version == 2 else header + b"\n" + bytes(data))


def _expect_version_error(path, version):
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (f"{path}: checkpoint version {version} unsupported "
                               f"(expected {FORMAT_VERSION})")


def test_version_1_document_rejected(completion_model, tmp_path):
    _expect_version_error(_corrupt(completion_model, tmp_path, _set(1, "version")), 1)


def test_version_2_document_rejected(completion_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(completion_model, path)
    _old_file(path, 2)
    _expect_version_error(path, 2)


def test_version_3_file_rejected(completion_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(completion_model, path)
    _old_file(path, 3)
    _expect_version_error(path, 3)


@pytest.mark.parametrize("task", ["completion", "prediction"])
def test_version_4_file_rejected(completion_model, prediction_model, tmp_path, task):
    path = tmp_path / "model.ckpt"
    save_checkpoint(prediction_model if task == "prediction" else completion_model, path)
    _old_file(path, 4)
    _expect_version_error(path, 4)


@pytest.mark.parametrize("task", ["completion", "prediction"])
def test_version_5_file_rejected(completion_model, prediction_model, tmp_path, task):
    # version 5 had today's layout, with agg and balance_epsilon in the config
    def edit(doc, arrays):
        doc["version"] = 5
        doc["config"].update(agg="mean", balance_epsilon=0.05)

    model = prediction_model if task == "prediction" else completion_model
    _expect_version_error(_corrupt(model, tmp_path, edit), 5)


def _no_array_read(monkeypatch):
    """Make allocating any array fail the test."""
    def unreachable(*args, **kwargs):
        raise AssertionError("an array was allocated")

    monkeypatch.setattr(checkpoint.np, "empty", unreachable)


@pytest.mark.parametrize("change", [-8, 8], ids=["short", "long"])
def test_payload_size_checked_before_any_array_is_read(completion_model, tmp_path,
                                                       monkeypatch, change):
    path = tmp_path / "model.ckpt"
    save_checkpoint(completion_model, path)
    saved = path.read_bytes()
    path.write_bytes(saved[:change] if change < 0 else saved + bytes(change))
    packed = len(saved) - saved.index(b"\n") - 1
    _no_array_read(monkeypatch)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (f"{path}: {_SIZE_ERROR} {packed} bytes of arrays, "
                               f"but {packed + change} follow the header")


@pytest.mark.parametrize("task, field", [("completion", "field counts.nodes is"),
                                         ("prediction", _SIZE_ERROR)])
def test_huge_count_fails_before_any_array_is_read(completion_model, prediction_model,
                                                   tmp_path, monkeypatch, task, field):
    # 2**62 ids of 8 bytes each overflow int64: numpy would refuse the shape
    model = prediction_model if task == "prediction" else completion_model
    path = _corrupt(model, tmp_path, _set(2**62, "counts", "nodes"))
    _no_array_read(monkeypatch)
    _expect_field_error(path, field)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_count_or_width_loads_or_fails_in_one_line(completion_model, prediction_model,
                                                       data):
    model = data.draw(st.sampled_from([completion_model, prediction_model]), label="model")
    keys = data.draw(st.sampled_from([("counts", "nodes"), ("counts", "edges"),
                                      ("counts", "pins"), ("config", "hidden_dim"),
                                      ("config", "clusters")]), label="field")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        doc, arrays = _read(path)
        saved = doc[keys[0]][keys[1]]
        value = data.draw(st.integers(0, 2**64) | st.integers(saved - 1, saved + 1),
                          label="value")
        doc[keys[0]][keys[1]] = value
        _write(path, doc, arrays)
        if value != saved:
            _expect_field_error(path, "")
            return
        again = load_checkpoint(path)
    assert again.structure.edge_members == model.structure.edge_members
    for name, w in model.params.trainable().items():
        assert again.params.trainable()[name].tobytes() == w.tobytes()


@pytest.fixture(scope="module")
def saved_bytes(completion_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "model.ckpt"
    save_checkpoint(completion_model, path)
    return path.read_bytes()


def _boundaries(saved: bytes) -> list[int]:
    """The cuts on either side of the header's newline and of each array's end."""
    start = saved.index(b"\n") + 1
    doc = json.loads(saved[:start])
    ends = np.cumsum([start - 1, 1] + [8 * math.prod(s) for s in _shapes(doc).values()])
    return sorted({int(cut) for end in ends for cut in (end - 1, end)
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
    for model, vocabulary in ((completion_model, list), (prediction_model, type(None))):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        saved = path.read_bytes()
        doc = json.loads(saved.split(b"\n", 1)[0])
        assert set(doc) == {"format", "version", "config", "counts", "relation_names",
                            "entity_names"}
        assert doc["counts"] == {"nodes": model.structure.num_nodes,
                                 "edges": model.structure.num_edges,
                                 "pins": model.structure.pins.size}
        assert type(doc["relation_names"]) is vocabulary
        # the bytes after the header are the arrays, nothing more
        arrays = [model.structure.edge_ptr, model.structure.pins, model.clusters.cluster_of,
                  *model.params.trainable().values()]
        edge_types = 0 if vocabulary is type(None) else model.structure.num_edges
        assert len(saved) - saved.index(b"\n") - 1 == 8 * (
            sum(a.size for a in arrays) + edge_types)


def _moved_row(arr):
    arr = arr.copy()
    arr[0] = np.roll(arr[0], 1)
    return arr


@pytest.mark.parametrize("name", ["node_x", "edge_init"])
def test_save_refuses_features_not_derived(completion_model, tmp_path, name):
    moved = _moved_row(getattr(completion_model, name))
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=name) as info:
        # a dense edge_init is turned into ids, so the model refuses it first
        save_checkpoint(dataclasses.replace(completion_model, **{name: moved}), path)
    assert "\n" not in str(info.value) and not path.exists()


def test_save_refuses_clusters_disagreeing_with_config(completion_model, tmp_path):
    # the file stores neither: the config's k and BALANCE_EPSILON rebuild them
    for k, epsilon in ((8, BALANCE_EPSILON), (4, 0.5)):
        clusters = ClusterAssignment(completion_model.clusters.cluster_of, k, epsilon)
        model = dataclasses.replace(completion_model, clusters=clusters)
        with pytest.raises(ValueError, match="clusters"):
            save_checkpoint(model, tmp_path / "model.ckpt")


@pytest.mark.parametrize("task", ["completion", "prediction"])
def test_save_refuses_clusters_of_another_node_count(completion_model, prediction_model,
                                                     tmp_path, task):
    # the count was once checked only inside the feature builder, whose
    # message named neither the file nor the field
    model = prediction_model if task == "prediction" else completion_model
    n = model.structure.num_nodes
    clusters = ClusterAssignment(model.clusters.cluster_of[:-1], model.clusters.k)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError) as info:
        save_checkpoint(dataclasses.replace(model, clusters=clusters), path)
    assert str(info.value) == (f"{path}: not saved, the model's clusters cover {n - 1} nodes, "
                               f"its structure {n}")
    assert not path.exists()


# loading takes the task from the config and names one node per cluster id
@pytest.mark.parametrize("task, change, field", [
    ("completion", lambda m: dataclasses.replace(m, task="classification"), "task"),
    ("prediction", lambda m: dataclasses.replace(m, entity_names=("a", "b")), "entity_names"),
], ids=["task-not-the-configs", "short-entity-names"])
def test_save_refuses_what_loading_would_not_give_back(completion_model, prediction_model,
                                                       tmp_path, task, change, field):
    model = change(prediction_model if task == "prediction" else completion_model)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=f"the model's {field} disagrees") as info:
        save_checkpoint(model, path)
    assert "\n" not in str(info.value) and not path.exists()


def _named(model, name, first):
    """``model`` with the first entry of its vocabulary ``name`` replaced."""
    return dataclasses.replace(model, **{name: (first, *getattr(model, name)[1:])})


@pytest.mark.parametrize("task, change, message", [
    ("completion", lambda m: _named(m, "relation_names", 7), "relation_names holds 7 at entry 0"),
    ("completion", lambda m: _named(m, "relation_names", True),
     "relation_names holds True at entry 0"),
    ("completion", lambda m: _named(m, "entity_names", None),
     "entity_names holds None at entry 0"),
    ("completion", lambda m: _named(m, "entity_names", ["e0"]),
     "entity_names holds ['e0'] at entry 0"),
    ("prediction", lambda m: dataclasses.replace(m, entity_names=("dup",) * 40),
     "entity_names holds 'dup' at entry 1"),
], ids=["integer-relation-name", "boolean-relation-name", "null-entity-name",
        "list-entity-name", "repeated-node-name"])
def test_vocabularies_are_distinct_strings(completion_model, prediction_model, tmp_path, task,
                                           change, message):
    model = change(prediction_model if task == "prediction" else completion_model)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError) as info:
        save_checkpoint(model, path)
    assert str(info.value) == (f"{path}: not saved, the model's {message}, "
                               "expected distinct strings")
    assert not path.exists()
    # the same vocabulary in a saved file fails to load, naming the field
    name = message.split()[0]
    path = _corrupt(prediction_model if task == "prediction" else completion_model, tmp_path,
                    _set(list(getattr(model, name)), name))
    _expect_field_error(path, f"field {message}")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_single_bad_pin_is_named(completion_model, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(completion_model, path)
        doc, arrays = _read(path)
        pins, ptr = arrays["pins"], arrays["edge_ptr"]
        n = doc["counts"]["nodes"]
        if data.draw(st.booleans(), label="swap"):
            # positions whose right neighbour is in the same edge
            inner = np.setdiff1d(np.arange(pins.size - 1), ptr[1:] - 1)
            i = int(inner[data.draw(st.integers(0, inner.size - 1), label="pair")])
            pins[[i, i + 1]] = pins[[i + 1, i]]
            edge = int((ptr <= i).sum()) - 1  # the edge whose span holds i and i + 1
            members = reprlib.repr(pins[ptr[edge]:ptr[edge + 1]].tolist())
            named = f"array pins holds edge {edge} as {members}, expected ascending"
        else:
            # one or two bad ids; the message names the first
            i = data.draw(st.integers(0, pins.size - 1), label="pin")
            later = data.draw(st.integers(i, pins.size - 1), label="later pin")
            for at in (later, i):
                pins[at] = data.draw(st.integers(-2**63, -1) | st.integers(n, 2**63 - 1),
                                     label="id")
            named = f"array pins holds id {pins[i]} at entry {i}, expected an integer in [0, {n})"
        _write(path, doc, arrays)
        _expect_field_error(path, named)


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
