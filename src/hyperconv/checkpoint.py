"""Versioned checkpoint container for trained models.

Version 4 is one header line, a JSON document, followed by the arrays'
raw little-endian bytes: float64 weights and int64 ids, so a reloaded
model reproduces every prediction bit-exactly. Each array's entry in the
header is its shape. The arrays follow the header back to back in one
fixed order, ``_PACKED``, which saving and loading share; an absent or
null entry takes no bytes. So the shapes place every array, and loading
first checks that they account for exactly the bytes after the header,
then reads each array straight into its own buffer. The file stores
what cannot be derived: the structure's CSR arrays, the edge types
(relational tasks), the cluster ids, whose count is the node count, the
weights, the vocabularies and the config. The task is the config's; the
features, one-hots of those, and the layers' shapes and activations
follow from them by the rules training builds a model by.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from pathlib import Path

import numpy as np

from .convolution import LayerParams
from .hypergraph import Hypergraph
from .partition import ClusterAssignment
from .training import (ModelParams, TrainConfig, TrainedModel, _check_type, _features,
                       _layer_shapes)

FORMAT_NAME = "hyperconv-checkpoint"
FORMAT_VERSION = 4

# every packed array with its dtype, in the order their bytes follow the header
_PACKED = {"structure.edge_ptr": "<i8", "structure.pins": "<i8", "structure.edge_type": "<i8",
           "clusters.cluster_of": "<i8", "arrays.W1": "<f8", "arrays.W2": "<f8",
           "arrays.Wh": "<f8", "arrays.bh": "<f8"}


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


def _typed(path, doc: dict, name: str, *types):
    """The value at ``name``; fails naming the field unless its type is one
    of ``types``, by ``_check_type``'s rule."""
    value = _field(path, doc, name)
    _check_type(f"{path}: field {name}", value, types)
    return value


class _Payload:
    """The bytes after the header line of the checkpoint open as ``fh``,
    ``start`` bytes in. The header's shapes place every packed array, back
    to back in ``_PACKED`` order; each is read from the file straight into
    a buffer of its own."""

    def __init__(self, path, fh, doc: dict, start: int):
        """Fails naming the field unless each packed entry in ``doc`` is a
        shape, absent or null, and fails naming both byte counts unless the
        shapes account for exactly the bytes after the header."""
        self.path, self.fh = path, fh
        self.offsets = {}
        end = start
        for name, dtype in _PACKED.items():
            section, key = name.split(".")
            shape = _typed(path, doc, section, dict).get(key)
            if shape is None:  # absent or null: no bytes
                continue
            if type(shape) is not list or any(type(s) is not int or s < 0 for s in shape):
                raise ValueError(f"{path}: field {name} is {reprlib.repr(shape)}, "
                                 "expected a shape, a list of non-negative integers")
            self.offsets[name] = end
            end += np.dtype(dtype).itemsize * math.prod(shape)
        size = os.fstat(fh.fileno()).st_size
        if end != size:
            raise ValueError(f"{path}: the header's shapes account for {end - start} bytes "
                             f"of arrays, but {size - start} follow the header")

    def array(self, doc: dict, name: str) -> np.ndarray:
        """The packed array at ``name``; fails naming the field when its
        entry is absent or null."""
        arr = np.empty(_typed(self.path, doc, name, list), _PACKED[name])
        self.fh.seek(self.offsets[name])
        self.fh.readinto(arr)
        if not arr.dtype.isnative:  # a big-endian machine swaps in place
            arr = arr.byteswap(inplace=True).view(arr.dtype.newbyteorder("="))
        return arr


def _ids(payload: _Payload, doc: dict, name: str, bound: int,
         size: int | None = None) -> np.ndarray:
    """The packed int64 array at ``name``: one-dimensional, ``size`` long
    when given, each entry in [0, bound). Fails naming the field and the
    first bad id."""
    path = payload.path
    ids = payload.array(doc, name)
    if ids.ndim != 1 or size not in (None, ids.size):
        expected = "one dimension" if size is None else f"shape [{size}]"
        raise ValueError(f"{path}: field {name} has shape {list(ids.shape)}, expected {expected}")
    bad = np.flatnonzero((ids < 0) | (ids >= bound))
    if bad.size:
        raise ValueError(f"{path}: field {name} holds id {ids[bad[0]]} at entry {bad[0]}, "
                         f"expected an integer in [0, {bound})")
    return ids


def _task_layout(config: TrainConfig, init_cols: int, relation_names):
    """The activations and array shapes ``_layer_shapes`` gives over
    ``init_cols`` edge feature columns (the width squared when bilinear),
    plus the binary head's for prediction."""
    layers = _layer_shapes(config, init_cols, len(relation_names or ()))
    power = 2 if config.bilinear else 1
    shapes = {f"W{i}": (out, omega ** power) for i, (out, omega, _) in enumerate(layers, 1)}
    if config.task == "prediction":
        shapes.update(Wh=(2, config.hidden_dim), bh=(2,))
    return [activation for _, _, activation in layers], shapes


def save_checkpoint(model: TrainedModel, path) -> None:
    """Write ``model`` to ``path``, by way of a temporary file beside it
    that replaces ``path`` once complete, so a failed or interrupted write
    leaves what was there; a failure names ``path``. Refuses a model whose
    task, clusters, features, vocabulary, activations or arrays
    ``load_checkpoint`` would not give back."""
    edge_type = None
    if model.task != "prediction":
        # the relation one-hot leads each edge_init row
        edge_type = model.edge_init[:, :len(model.relation_names)].argmax(axis=1)
    edge_init, node_x = _features(model.structure, model.clusters, edge_type,
                                  model.relation_names, model.entity_names)
    activations, shapes = _task_layout(model.config, edge_init.shape[1], model.relation_names)
    arrays = model.params.trainable()
    names = model.entity_names
    same = {"task": model.task == model.config.task,
            "clusters": (model.clusters.k, model.clusters.balance_epsilon)
            == (model.config.clusters, model.config.balance_epsilon),
            "edge_init": np.array_equal(edge_init, model.edge_init),
            "node_x": np.array_equal(node_x, model.node_x),
            "entity_names": not names or len(names) == model.structure.num_nodes,
            "activations": [layer.activation for layer in model.layers] == activations,
            "arrays": {name: arr.shape for name, arr in arrays.items()} == shapes}
    wrong = [name for name, ok in same.items() if not ok]
    if wrong:
        raise ValueError(f"{path}: not saved, the model's {wrong[0]} disagrees with its "
                         "config, cluster ids and edge types")
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "structure": {"edge_ptr": model.structure.edge_ptr, "pins": model.structure.pins,
                      "edge_type": edge_type},
        "clusters": {"cluster_of": model.clusters.cluster_of},
        "arrays": arrays,
        "relation_names": list(model.relation_names) if model.relation_names else None,
        "entity_names": list(model.entity_names) if model.entity_names else None,
    }
    packed = []  # each array's entry becomes its shape, its bytes queued in file order
    for name, dtype in _PACKED.items():
        section, key = name.split(".")
        if doc[section].get(key) is not None:
            packed.append(np.ascontiguousarray(doc[section][key], dtype))
            doc[section][key] = list(packed[-1].shape)
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temporary, "xb") as fh:
            fh.write(json.dumps(doc, sort_keys=True).encode("ascii") + b"\n")
            for arr in packed:
                fh.write(arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temporary, path)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the checkpoint, not the temporary file
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from None
        raise


def load_checkpoint(path) -> TrainedModel:
    path = Path(path)
    with open(path, "rb") as fh:
        # a file without a newline, such as a version-2 document, is all header
        header = fh.readline()
        try:
            doc = json.loads(header.decode("utf-8"))
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a model checkpoint")
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: checkpoint version {doc.get('version')} unsupported "
                f"(expected {FORMAT_VERSION})"
            )
        payload = _Payload(path, fh, doc, len(header))
        fields = _typed(path, doc, "config", dict)
        try:
            config = TrainConfig.from_dict(fields)
        except ValueError as exc:
            raise ValueError(f"{path}: field config: {exc}") from None
        # the relational tasks rebuild their typed structure from the vocabularies
        vocabulary = (list, type(None)) if config.task == "prediction" else (list,)
        relation_names = _typed(path, doc, "relation_names", *vocabulary)
        entity_names = _typed(path, doc, "entity_names", *vocabulary)
        # one cluster id per node: their count is the node count
        cluster_of = _ids(payload, doc, "clusters.cluster_of", config.clusters)
        n = cluster_of.size
        if entity_names is not None and len(entity_names) != n:
            raise ValueError(f"{path}: field entity_names holds {len(entity_names)} names, "
                             f"but field clusters.cluster_of gives {n} nodes")
        pins = _ids(payload, doc, "structure.pins", n)
        edge_ptr = _ids(payload, doc, "structure.edge_ptr", pins.size + 1)
        empty = np.flatnonzero(np.diff(edge_ptr) <= 0)
        if edge_ptr[:1].tolist() != [0] or edge_ptr[-1:].tolist() != [pins.size] or empty.size:
            where = f"edge {empty[0]} is empty; " if empty.size else ""
            raise ValueError(f"{path}: field structure.edge_ptr: {where}expected offsets "
                             f"rising strictly from 0 to {pins.size}, the pin count")
        structure = Hypergraph(edge_ptr, pins, n)
        # each edge lists distinct ids in ascending order, as ``build_hypergraph``
        # stores them, so the pins' (edge, node) codes rise strictly
        wrong = structure.pin_edge[1:][np.diff(structure.pin_edge * n + pins) <= 0]
        if wrong.size:
            members = pins[edge_ptr[wrong[0]]:edge_ptr[wrong[0] + 1]].tolist()
            raise ValueError(f"{path}: field structure.pins holds edge {wrong[0]} as "
                             f"{reprlib.repr(members)}, expected ascending and distinct node ids")
        if config.task == "prediction":
            edge_type = _typed(path, doc, "structure.edge_type", type(None))
        else:
            edge_type = _ids(payload, doc, "structure.edge_type", len(relation_names),
                             structure.num_edges)
        # the features ``_features`` builds: the relation one-hot, when there
        # are edge types, before the cluster one-hot
        init_cols = config.clusters + (0 if edge_type is None else len(relation_names))
        activations, shapes = _task_layout(config, init_cols, relation_names)
        arrays = {}
        for name, shape in shapes.items():
            arr = arrays[name] = payload.array(doc, f"arrays.{name}")
            if arr.shape != shape or not np.isfinite(arr).all():
                raise ValueError(f"{path}: field arrays.{name} has shape {list(arr.shape)}, "
                                 f"expected shape {list(shape)} and finite values")
        extra = sorted(doc["arrays"].keys() - shapes.keys())
        if extra:
            raise ValueError(f"{path}: field arrays.{extra[0]} is not an array of a "
                             f"{config.task} model")
    del doc  # every packed array is read; free the header before the features
    clusters = ClusterAssignment(cluster_of, config.clusters, config.balance_epsilon)
    try:
        edge_init, node_x = _features(structure, clusters, edge_type, relation_names,
                                      entity_names)
    except (TypeError, ValueError) as exc:  # only the vocabularies are left unchecked
        raise ValueError(f"{path}: fields relation_names, entity_names: {exc}") from None
    params = ModelParams(LayerParams(arrays["W1"], activations[0]),
                         LayerParams(arrays["W2"], activations[1]),
                         arrays.get("Wh"), arrays.get("bh"))
    return TrainedModel(task=config.task, config=config, structure=structure,
                        clusters=clusters, params=params, edge_init=edge_init, node_x=node_x,
                        relation_names=tuple(relation_names) if relation_names else None,
                        entity_names=tuple(entity_names) if entity_names else None)
