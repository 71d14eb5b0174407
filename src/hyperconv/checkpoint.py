"""Versioned checkpoint container for trained models.

JSON with float64 arrays packed as base64 little-endian bytes, so a
reloaded model reproduces every prediction bit-exactly. The structure,
cluster assignment, initial features, weights, vocabularies, and config
echo are all stored; optimizer state is not.
"""

from __future__ import annotations

import base64
import itertools
import json
import reprlib
from pathlib import Path

import numpy as np

from .convolution import ACTIVATIONS, LayerParams
from .hypergraph import Hypergraph
from .partition import ClusterAssignment
from .training import ModelParams, TrainConfig, TrainedModel

FORMAT_NAME = "hyperconv-checkpoint"
FORMAT_VERSION = 1


def _pack(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


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


_EXPECTED = {int: "an integer", float: "a number", list: "a list", type(None): "null"}


def _typed(path, doc: dict, name: str, *types):
    """The value at ``name``; fails naming the field unless its type is one
    of ``types`` (a JSON true or false is not an integer)."""
    value = _field(path, doc, name)
    if type(value) not in types:
        expected = " or ".join(_EXPECTED[t] for t in types)
        raise ValueError(f"{path}: field {name} is {reprlib.repr(value)}, expected {expected}")
    return value


def _unpack(path, doc: dict, name: str) -> np.ndarray:
    data, shape = _field(path, doc, f"{name}.data"), _field(path, doc, f"{name}.shape")
    try:
        arr = np.frombuffer(base64.b64decode(data), dtype="<f8").astype(np.float64)
        return arr.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field {name} does not decode to shape {shape}: {exc}") from None


def save_checkpoint(model: TrainedModel, path) -> None:
    arrays = {
        "edge_init": _pack(model.edge_init),
        "node_x": _pack(model.node_x),
        "W1": _pack(model.params.layer1.weight),
        "W2": _pack(model.params.layer2.weight),
    }
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
            "edges": [list(m) for m in model.structure.edge_members],
        },
        "clusters": {
            "k": model.clusters.k,
            "balance_epsilon": model.clusters.balance_epsilon,
            "cluster_of": [int(c) for c in model.clusters.cluster_of],
        },
        "arrays": arrays,
        "relation_names": list(model.relation_names) if model.relation_names else None,
        "entity_names": list(model.entity_names) if model.entity_names else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _check_shapes(path, task, config, structure, clusters, params, edge_init, node_x,
                  relation_names) -> None:
    """Reject arrays that disagree with the structure, the config or the
    vocabularies, naming the first offending field."""
    n, m, k, hidden = structure.num_nodes, structure.num_edges, config.clusters, config.hidden_dim
    if task == "prediction":
        edge_dim, out2 = k, hidden
    else:
        r = len(relation_names) if relation_names else params.layer2.out_dim
        edge_dim, out2 = r + k, r

    def fan_in(d):
        return d * d if config.bilinear else d

    def shape(arr):
        return None if arr is None else arr.shape

    expected = [
        ("clusters.cluster_of", clusters.cluster_of.shape, (n,)),
        ("arrays.edge_init", edge_init.shape, (m, edge_dim)),
        ("arrays.node_x", node_x.shape, (n, k)),
        ("arrays.W1", params.layer1.weight.shape, (hidden, fan_in(edge_dim + k))),
        ("arrays.W2", params.layer2.weight.shape, (out2, fan_in(hidden + k))),
    ]
    if task == "prediction":
        expected += [
            ("arrays.Wh", shape(params.head_weight), (2, hidden)),
            ("arrays.bh", shape(params.head_bias), (2,)),
        ]
    for field, got, want in expected:
        if got != want:
            found = "missing" if got is None else f"shape {list(got)}"
            raise ValueError(f"{path}: field {field} has {found}, expected shape {list(want)}")


def _reject_ids(path, name: str, kind: str, bad: list, bound) -> None:
    """Fail naming the field and the first of ``bad``, its entries that
    are not an int in [0, bound)."""
    if bad:
        raise ValueError(f"{path}: field {name} holds {kind} id {bad[0]!r}, "
                         f"expected an integer in [0, {bound})")


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
    # sections and scalars first, so the one pass over the pins below can
    # trust their types
    raw_edges = _typed(path, doc, "structure.edges", list)
    n = _typed(path, doc, "structure.num_nodes", int)
    cluster_of = _typed(path, doc, "clusters.cluster_of", list)
    k = _typed(path, doc, "clusters.k", int)
    epsilon = _typed(path, doc, "clusters.balance_epsilon", float, int)
    if not epsilon >= 0:
        raise ValueError(f"{path}: field clusters.balance_epsilon is {epsilon!r}, "
                         "expected a number >= 0")
    try:
        sizes = np.fromiter(map(len, raw_edges), dtype=np.int64, count=len(raw_edges))
    except TypeError:
        entry = next(m for m in raw_edges if type(m) is not list)
        raise ValueError(f"{path}: field structure.edges holds {reprlib.repr(entry)}, "
                         f"expected a list of node ids") from None
    # one pass over the pins; JSON floats, strings and booleans are not ids
    flat = list(itertools.chain.from_iterable(raw_edges))
    bad = [v for v in flat if type(v) is not int or not 0 <= v < n]
    _reject_ids(path, "structure.edges", "node", bad, n)
    pins = np.array(flat, dtype=np.int64)
    edge_ptr = np.concatenate([[0], np.cumsum(sizes)])
    # entries list distinct ids in ascending order, as ``build_hypergraph``
    # stores them, so the pins' (edge, node) codes rise strictly
    pin_edge = np.repeat(np.arange(sizes.size), sizes)
    wrong = np.append(np.flatnonzero(sizes == 0),
                      pin_edge[1:][np.diff(pin_edge * n + pins) <= 0])
    if wrong.size:
        i = int(wrong.min())
        raise ValueError(f"{path}: field structure.edges entry {i} is "
                         f"{reprlib.repr(tuple(raw_edges[i]))}, "
                         "expected nonempty, ascending and distinct node ids")
    structure = Hypergraph(edge_ptr, pins, n)
    bad = [c for c in cluster_of if type(c) is not int or not 0 <= c < k]
    _reject_ids(path, "clusters.cluster_of", "cluster", bad, k)
    clusters = ClusterAssignment(cluster_of, k, epsilon)
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
    try:
        config = TrainConfig.from_dict(_field(path, doc, "config"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field config: {exc}") from None
    edge_init = _unpack(path, doc, "arrays.edge_init")
    node_x = _unpack(path, doc, "arrays.node_x")
    names = _typed(path, doc, "relation_names", list, type(None))
    relation_names = tuple(names) if names else None
    task = _field(path, doc, "task")
    if task != config.task:
        raise ValueError(f"{path}: field task is {task!r} but config.task is {config.task!r}")
    if epsilon != config.balance_epsilon:
        raise ValueError(f"{path}: field clusters.balance_epsilon is {epsilon!r} but "
                         f"config.balance_epsilon is {config.balance_epsilon!r}")
    _check_shapes(path, task, config, structure, clusters, params, edge_init,
                  node_x, relation_names)
    entity_names = _typed(path, doc, "entity_names", list, type(None))
    return TrainedModel(
        task=task,
        config=config,
        structure=structure,
        clusters=clusters,
        params=params,
        edge_init=edge_init,
        node_x=node_x,
        relation_names=relation_names,
        entity_names=tuple(entity_names) if entity_names else None,
    )
