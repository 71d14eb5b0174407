"""Versioned checkpoint container for trained models.

Version 3 is one header line, a JSON document, followed by the arrays'
raw little-endian bytes: float64 weights and int64 ids, so a reloaded
model reproduces every prediction bit-exactly. Each array's entry in the
header holds its ``shape`` and its ``offset``, counted in bytes from the
end of the header line; the arrays lie back to back from offset 0, each
at a multiple of 8, and the file ends where the last one does. Loading
reads each array straight into its own buffer. The file stores what
cannot be derived: the structure's CSR arrays, the edge types
(relational tasks), the cluster ids, the weights, the vocabularies and
the config. The features, one-hots of those, and the layers' shapes and
activations follow from them by the rules training builds a model by.
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
from .training import (_JSON_NAMES, ModelParams, TrainConfig, TrainedModel, _features,
                       _layer_shapes)

FORMAT_NAME = "hyperconv-checkpoint"
FORMAT_VERSION = 3


def _pack(out: list, arr: np.ndarray, dtype: str = "<f8") -> dict:
    """The header entry of ``arr``, whose bytes are appended to ``out``
    after those already there (every dtype is 8 bytes wide, so each offset
    is a multiple of 8)."""
    offset = sum(a.nbytes for a in out)
    out.append(np.ascontiguousarray(arr, dtype=dtype))
    return {"shape": list(out[-1].shape), "offset": offset}


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
    of ``types`` (a JSON true or false is not an integer)."""
    value = _field(path, doc, name)
    if type(value) not in types:
        expected = " or ".join(_JSON_NAMES[t] for t in types)
        raise ValueError(f"{path}: field {name} is {reprlib.repr(value)}, expected {expected}")
    return value


class _Payload:
    """The bytes after the header line of the checkpoint open as ``fh``,
    ``start`` bytes in; each packed array is read from them straight into
    a buffer of its own."""

    def __init__(self, path, fh, start: int):
        self.path, self.fh, self.start = path, fh, start
        self.size = os.fstat(fh.fileno()).st_size - start
        self.spans = []  # (offset, end, field) of each array read

    def array(self, doc: dict, name: str, dtype: str = "<f8") -> np.ndarray:
        """The packed array at ``name``; fails naming the field unless its
        entry holds a shape and an aligned offset whose bytes are in the file."""
        path = self.path
        entry = _typed(path, doc, name, dict)
        if entry.keys() != {"shape", "offset"}:
            raise ValueError(f"{path}: field {name} has keys {sorted(entry)}, "
                             "expected offset and shape")
        shape, offset = entry["shape"], entry["offset"]
        if type(shape) is not list or any(type(s) is not int or s < 0 for s in shape):
            raise ValueError(f"{path}: field {name}.shape is {reprlib.repr(shape)}, "
                             "expected a list of non-negative integers")
        if type(offset) is not int or offset % 8 or not 0 <= offset <= self.size:
            raise ValueError(f"{path}: field {name}.offset is {reprlib.repr(offset)}, expected "
                             f"a multiple of 8 within the {self.size} bytes after the header")
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        if nbytes > self.size - offset:
            raise ValueError(f"{path}: field {name} of shape {shape} needs {nbytes} bytes at "
                             f"offset {offset}, but only {self.size - offset} follow")
        arr = np.empty(shape, dtype)
        self.fh.seek(self.start + offset)
        self.fh.readinto(arr)
        self.spans.append((offset, offset + nbytes, name))
        if not arr.dtype.isnative:  # a big-endian machine swaps in place
            arr = arr.byteswap(inplace=True).view(arr.dtype.newbyteorder("="))
        return arr

    def check_layout(self) -> None:
        """Fails unless the arrays read lie back to back from offset 0 to
        the end of the file."""
        end, name = 0, "the header"
        for offset, stop, field in sorted(self.spans):
            if offset != end:
                raise ValueError(f"{self.path}: field {field}.offset is {offset}, expected "
                                 f"{end}, where {name} ends: the arrays lie back to back")
            end, name = stop, f"field {field}"
        if end != self.size:
            raise ValueError(f"{self.path}: {self.size - end} bytes are left after the last "
                             f"array, {name}")


def _ids(payload: _Payload, doc: dict, name: str, bound: int,
         size: int | None = None) -> np.ndarray:
    """The packed int64 array at ``name``: one-dimensional, ``size`` long
    when given, each entry in [0, bound). Fails naming the field and the
    first bad id."""
    path = payload.path
    ids = payload.array(doc, name, "<i8")
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
    leaves what was there. Refuses a model whose clusters, features,
    activations or arrays ``load_checkpoint`` would not give back."""
    edge_type = None
    if model.task != "prediction":
        # the relation one-hot leads each edge_init row
        edge_type = model.edge_init[:, :len(model.relation_names)].argmax(axis=1)
    edge_init, node_x = _features(model.structure, model.clusters, edge_type,
                                  model.relation_names, model.entity_names)
    activations, shapes = _task_layout(model.config, edge_init.shape[1], model.relation_names)
    arrays = model.params.trainable()
    same = {"clusters": (model.clusters.k, model.clusters.balance_epsilon)
            == (model.config.clusters, model.config.balance_epsilon),
            "edge_init": np.array_equal(edge_init, model.edge_init),
            "node_x": np.array_equal(node_x, model.node_x),
            "activations": [layer.activation for layer in model.layers] == activations,
            "arrays": {name: arr.shape for name, arr in arrays.items()} == shapes}
    wrong = [name for name, ok in same.items() if not ok]
    if wrong:
        raise ValueError(f"{path}: not saved, the model's {wrong[0]} disagrees with its "
                         "config, cluster ids and edge types")
    packed = []
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "task": model.task,
        "config": model.config.to_dict(),
        "activations": activations,
        "structure": {
            "num_nodes": model.structure.num_nodes,
            "edge_ptr": _pack(packed, model.structure.edge_ptr, "<i8"),
            "pins": _pack(packed, model.structure.pins, "<i8"),
            "edge_type": None if edge_type is None else _pack(packed, edge_type, "<i8"),
        },
        "clusters": {"cluster_of": _pack(packed, model.clusters.cluster_of, "<i8")},
        "arrays": {name: _pack(packed, arr) for name, arr in arrays.items()},
        "relation_names": list(model.relation_names) if model.relation_names else None,
        "entity_names": list(model.entity_names) if model.entity_names else None,
    }
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(temporary, "xb")
    try:
        with fh:
            fh.write(json.dumps(doc, sort_keys=True).encode("ascii") + b"\n")
            for arr in packed:
                fh.write(arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
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
        payload = _Payload(path, fh, len(header))
        fields = _typed(path, doc, "config", dict)
        try:
            config = TrainConfig.from_dict(fields)
        except ValueError as exc:
            raise ValueError(f"{path}: field config: {exc}") from None
        task = _field(path, doc, "task")
        if task != config.task:
            raise ValueError(f"{path}: field task is {task!r} but config.task is "
                             f"{config.task!r}")
        # the relational tasks rebuild their typed structure from the vocabularies
        vocabulary = (list, type(None)) if task == "prediction" else (list,)
        relation_names = _typed(path, doc, "relation_names", *vocabulary)
        entity_names = _typed(path, doc, "entity_names", *vocabulary)
        n = _typed(path, doc, "structure.num_nodes", int)
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
        cluster_of = _ids(payload, doc, "clusters.cluster_of", config.clusters, n)
        if task == "prediction":
            edge_type = _typed(path, doc, "structure.edge_type", type(None))
        else:
            edge_type = _ids(payload, doc, "structure.edge_type", len(relation_names),
                             structure.num_edges)
        # the features ``_features`` builds: the relation one-hot, when there
        # are edge types, before the cluster one-hot
        init_cols = config.clusters + (0 if edge_type is None else len(relation_names))
        activations, shapes = _task_layout(config, init_cols, relation_names)
        if _field(path, doc, "activations") != activations:
            raise ValueError(f"{path}: field activations is "
                             f"{reprlib.repr(doc['activations'])}, expected {activations}")
        arrays = {}
        for name, shape in shapes.items():
            arr = arrays[name] = payload.array(doc, f"arrays.{name}")
            if arr.shape != shape or not np.isfinite(arr).all():
                raise ValueError(f"{path}: field arrays.{name} has shape {list(arr.shape)}, "
                                 f"expected shape {list(shape)} and finite values")
        extra = sorted(doc["arrays"].keys() - shapes.keys())
        if extra:
            raise ValueError(f"{path}: field arrays.{extra[0]} is not an array of a {task} "
                             "model")
        payload.check_layout()
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
    return TrainedModel(task=task, config=config, structure=structure, clusters=clusters,
                        params=params, edge_init=edge_init, node_x=node_x,
                        relation_names=tuple(relation_names) if relation_names else None,
                        entity_names=tuple(entity_names) if entity_names else None)
