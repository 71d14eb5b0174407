"""Versioned checkpoint container for trained models.

JSON with float64 arrays packed as base64 little-endian bytes, so a
reloaded model reproduces every prediction bit-exactly. The structure,
cluster assignment, initial features, weights, vocabularies, and config
echo are all stored; optimizer state is not.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .convolution import LayerParams
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


def _unpack(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(obj["shape"])


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


def load_checkpoint(path) -> TrainedModel:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {doc.get('version')} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    edges = [tuple(m) for m in doc["structure"]["edges"]]
    n = doc["structure"]["num_nodes"]
    bad = next((v for m in edges for v in m if not 0 <= v < n), None)
    if bad is not None:
        raise ValueError(f"{path}: field structure.edges holds node id {bad}, "
                         f"out of range [0, {n})")
    structure = Hypergraph(edges, n)
    clusters = ClusterAssignment(
        cluster_of=np.asarray(doc["clusters"]["cluster_of"], dtype=np.int64),
        k=doc["clusters"]["k"],
        balance_epsilon=doc["clusters"]["balance_epsilon"],
    )
    arrays = doc["arrays"]
    act1, act2 = doc["activations"]
    params = ModelParams(
        layer1=LayerParams(_unpack(arrays["W1"]), act1),
        layer2=LayerParams(_unpack(arrays["W2"]), act2),
        head_weight=_unpack(arrays["Wh"]) if "Wh" in arrays else None,
        head_bias=_unpack(arrays["bh"]) if "bh" in arrays else None,
    )
    try:
        config = TrainConfig.from_dict(doc["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field config: {exc}") from None
    edge_init = _unpack(arrays["edge_init"])
    node_x = _unpack(arrays["node_x"])
    relation_names = tuple(doc["relation_names"]) if doc["relation_names"] else None
    _check_shapes(path, doc["task"], config, structure, clusters, params, edge_init,
                  node_x, relation_names)
    return TrainedModel(
        task=doc["task"],
        config=config,
        structure=structure,
        clusters=clusters,
        params=params,
        edge_init=edge_init,
        node_x=node_x,
        relation_names=relation_names,
        entity_names=tuple(doc["entity_names"]) if doc["entity_names"] else None,
    )
