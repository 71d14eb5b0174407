"""Versioned checkpoint container for trained models.

JSON with float64 weights and int64 ids packed as base64 little-endian
bytes, so a reloaded model reproduces every prediction bit-exactly. It
stores what cannot be derived: the structure's CSR arrays, the edge types
(relational tasks), the cluster ids, the weights, the vocabularies and the
config. The initial features, one-hots of those, are rebuilt on load.
"""

from __future__ import annotations

import base64
import json
import reprlib
from pathlib import Path

import numpy as np

from .convolution import ACTIVATIONS, LayerParams
from .features import node_onehot
from .hypergraph import Hypergraph, KnowledgeHypergraph
from .partition import ClusterAssignment
from .training import ModelParams, TrainConfig, TrainedModel, _edge_init

FORMAT_NAME = "hyperconv-checkpoint"
FORMAT_VERSION = 2


def _pack(arr: np.ndarray, dtype: str = "<f8") -> dict:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _field(path, doc: dict, name: str):
    """The value at the dotted ``name`` in ``doc``; fails naming the first
    missing key."""
    keys = name.split(".")
    value = doc
    for i, key in enumerate(keys):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{path}: field {'.'.join(keys[:i + 1])} is missing")
        value = value[key]
    return value


_EXPECTED = {int: "an integer", list: "a list", type(None): "null"}


def _typed(path, doc: dict, name: str, *types):
    """The value at ``name``; fails naming the field unless its type is one
    of ``types`` (a JSON true or false is not an integer)."""
    value = _field(path, doc, name)
    if type(value) not in types:
        expected = " or ".join(_EXPECTED[t] for t in types)
        raise ValueError(f"{path}: field {name} is {reprlib.repr(value)}, expected {expected}")
    return value


def _unpack(path, doc: dict, name: str, dtype: str = "<f8") -> np.ndarray:
    data, shape = _field(path, doc, f"{name}.data"), _field(path, doc, f"{name}.shape")
    try:
        arr = np.frombuffer(base64.b64decode(data, validate=True), dtype=dtype)
        return arr.astype(arr.dtype.newbyteorder("=")).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field {name} does not decode to shape {shape}: {exc}") from None


def _ids(path, doc: dict, name: str, bound: int, size: int | None = None) -> np.ndarray:
    """The packed int64 array at ``name``: one-dimensional, ``size`` long
    when given, each entry in [0, bound). Fails naming the field and the
    first bad id."""
    ids = _unpack(path, doc, name, "<i8")
    if ids.ndim != 1 or size not in (None, ids.size):
        expected = "one dimension" if size is None else f"shape [{size}]"
        raise ValueError(f"{path}: field {name} has shape {list(ids.shape)}, expected {expected}")
    bad = np.flatnonzero((ids < 0) | (ids >= bound))
    if bad.size:
        raise ValueError(f"{path}: field {name} holds id {ids[bad[0]]} at entry {bad[0]}, "
                         f"expected an integer in [0, {bound})")
    return ids


def _derive(config: TrainConfig, structure: Hypergraph, cluster_of, edge_type,
            relation_names, entity_names):
    """The cluster assignment, ``edge_init`` and ``node_x`` that the config,
    the cluster ids and the edge types (None for prediction) determine."""
    clusters = ClusterAssignment(cluster_of, config.clusters, config.balance_epsilon)
    data = structure if edge_type is None else KnowledgeHypergraph(
        structure, edge_type, relation_names, entity_names)
    return clusters, _edge_init(data, clusters), node_onehot(clusters)


def save_checkpoint(model: TrainedModel, path) -> None:
    """Write ``model`` to ``path``. Refuses a model whose clusters or
    features differ from the ones ``load_checkpoint`` would rebuild."""
    edge_type = None
    if model.task != "prediction":
        # the relation one-hot leads each edge_init row
        edge_type = model.edge_init[:, :len(model.relation_names)].argmax(axis=1)
    clusters, edge_init, node_x = _derive(model.config, model.structure,
                                          model.clusters.cluster_of, edge_type,
                                          model.relation_names, model.entity_names)
    same = {"clusters": (clusters.k, clusters.balance_epsilon)
            == (model.clusters.k, model.clusters.balance_epsilon),
            "edge_init": np.array_equal(edge_init, model.edge_init),
            "node_x": np.array_equal(node_x, model.node_x)}
    wrong = [name for name, ok in same.items() if not ok]
    if wrong:
        raise ValueError(f"{path}: not saved, the model's {wrong[0]} is not the one its "
                         "config, cluster ids and edge types derive")
    arrays = {"W1": _pack(model.params.layer1.weight), "W2": _pack(model.params.layer2.weight)}
    if model.params.head_weight is not None:
        arrays["Wh"] = _pack(model.params.head_weight)
        arrays["bh"] = _pack(model.params.head_bias)
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "task": model.task,
        "config": model.config.to_dict(),
        "activations": [model.params.layer1.activation, model.params.layer2.activation],
        "structure": {
            "num_nodes": model.structure.num_nodes,
            "edge_ptr": _pack(model.structure.edge_ptr, "<i8"),
            "pins": _pack(model.structure.pins, "<i8"),
            "edge_type": None if edge_type is None else _pack(edge_type, "<i8"),
        },
        "clusters": {"cluster_of": _pack(model.clusters.cluster_of, "<i8")},
        "arrays": arrays,
        "relation_names": list(model.relation_names) if model.relation_names else None,
        "entity_names": list(model.entity_names) if model.entity_names else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _check_shapes(path, task, config, params, relation_names) -> None:
    """Reject weights that disagree with the config or the relation
    vocabulary, naming the first offending field."""
    k, hidden = config.clusters, config.hidden_dim
    r = 0 if task == "prediction" else len(relation_names)  # edge_init's type columns
    out2 = hidden if task == "prediction" else r
    power = 2 if config.bilinear else 1
    expected = [("arrays.W1", params.layer1.weight, (hidden, (r + 2 * k) ** power)),
                ("arrays.W2", params.layer2.weight, (out2, (hidden + k) ** power))]
    if task == "prediction":
        expected += [("arrays.Wh", params.head_weight, (2, hidden)),
                     ("arrays.bh", params.head_bias, (2,))]
    for field, arr, want in expected:
        got = None if arr is None else arr.shape
        if got != want:
            found = "missing" if got is None else f"shape {list(got)}"
            raise ValueError(f"{path}: field {field} has {found}, expected shape {list(want)}")


def load_checkpoint(path) -> TrainedModel:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {doc.get('version')} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        config = TrainConfig.from_dict(_field(path, doc, "config"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field config: {exc}") from None
    k = _typed(path, doc, "config.clusters", int)
    task = _field(path, doc, "task")
    if task != config.task:
        raise ValueError(f"{path}: field task is {task!r} but config.task is {config.task!r}")
    # the relational tasks rebuild their typed structure from the vocabularies
    vocabulary = (list, type(None)) if task == "prediction" else (list,)
    relation_names = _typed(path, doc, "relation_names", *vocabulary)
    entity_names = _typed(path, doc, "entity_names", *vocabulary)
    n = _typed(path, doc, "structure.num_nodes", int)
    pins = _ids(path, doc, "structure.pins", n)
    edge_ptr = _ids(path, doc, "structure.edge_ptr", pins.size + 1)
    empty = np.flatnonzero(np.diff(edge_ptr) <= 0)
    if edge_ptr[:1].tolist() != [0] or edge_ptr[-1:].tolist() != [pins.size] or empty.size:
        where = f"edge {empty[0]} is empty; " if empty.size else ""
        raise ValueError(f"{path}: field structure.edge_ptr: {where}expected offsets rising "
                         f"strictly from 0 to {pins.size}, the pin count")
    structure = Hypergraph(edge_ptr, pins, n)
    # each edge lists distinct ids in ascending order, as ``build_hypergraph``
    # stores them, so the pins' (edge, node) codes rise strictly
    wrong = structure.pin_edge[1:][np.diff(structure.pin_edge * n + pins) <= 0]
    if wrong.size:
        members = pins[edge_ptr[wrong[0]]:edge_ptr[wrong[0] + 1]].tolist()
        raise ValueError(f"{path}: field structure.pins holds edge {wrong[0]} as "
                         f"{reprlib.repr(members)}, expected ascending and distinct node ids")
    cluster_of = _ids(path, doc, "clusters.cluster_of", k, n)
    if task == "prediction":
        edge_type = _typed(path, doc, "structure.edge_type", type(None))
    else:
        edge_type = _ids(path, doc, "structure.edge_type", len(relation_names),
                         structure.num_edges).tolist()
    try:
        clusters, edge_init, node_x = _derive(config, structure, cluster_of, edge_type,
                                              relation_names, entity_names)
    except (TypeError, ValueError) as exc:  # only the vocabularies are left unchecked
        raise ValueError(f"{path}: fields relation_names, entity_names: {exc}") from None
    activations = _field(path, doc, "activations")
    if (not isinstance(activations, list) or len(activations) != 2
            or any(a not in ACTIVATIONS for a in activations)):
        raise ValueError(f"{path}: field activations is {activations!r}, "
                         f"expected two of {list(ACTIVATIONS)}")
    layers = []
    for name, activation in zip(("W1", "W2"), activations):
        weight = _unpack(path, doc, f"arrays.{name}")
        try:
            layers.append(LayerParams(weight, activation))
        except ValueError as exc:
            raise ValueError(f"{path}: field arrays.{name}: {exc}") from None
    arrays = _field(path, doc, "arrays")
    params = ModelParams(
        *layers,
        head_weight=_unpack(path, doc, "arrays.Wh") if "Wh" in arrays else None,
        head_bias=_unpack(path, doc, "arrays.bh") if "bh" in arrays else None,
    )
    _check_shapes(path, task, config, params, relation_names)
    return TrainedModel(task=task, config=config, structure=structure, clusters=clusters,
                        params=params, edge_init=edge_init, node_x=node_x,
                        relation_names=tuple(relation_names) if relation_names else None,
                        entity_names=tuple(entity_names) if entity_names else None)
