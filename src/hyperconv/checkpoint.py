"""Versioned checkpoint container for trained models.

Version 6 is one header line, a JSON document, followed by the arrays' raw
little-endian bytes: float64 weights and int64 ids, so a reloaded model
reproduces every prediction bit-exactly. The header holds the config, the
relation and entity vocabularies and three counts: nodes, edges and pins.
The arrays are what cannot be derived: the structure's CSR arrays, the
edge types (relational tasks), the cluster ids and the weights, back to
back in one fixed order, ``_PACKED``. No shape is stored: the ids' follow
from the counts and the weights' from the config and the relation count,
by the rules training builds a model by. So loading checks that the
shapes account for exactly the bytes after the header before it reads
each array into its own buffer. The task is the config's. The loaded
model keeps its edge features as ids, the edge types and the pooled
cluster ids, as training does, so no dense feature table is built; the
node features and the activations are rebuilt as training builds them.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from pathlib import Path

import numpy as np

from .convolution import LayerParams
from .features import node_onehot
from .hypergraph import Hypergraph
from .partition import BALANCE_EPSILON, ClusterAssignment
from .training import ModelParams, TrainConfig, TrainedModel, _check_type, _layer_shapes

FORMAT_NAME = "hyperconv-checkpoint"
FORMAT_VERSION = 6

# every packed array with its dtype, in the order their bytes follow the header
_PACKED = {"edge_ptr": "<i8", "pins": "<i8", "edge_type": "<i8", "cluster_of": "<i8",
           "W1": "<f8", "W2": "<f8", "Wh": "<f8", "bh": "<f8"}


def _typed(path, doc: dict, name: str, *types):
    """The value at the dotted ``name`` in ``doc``; fails naming the first
    missing key, or the field unless its type is one of ``types`` by
    ``_check_type``'s rule."""
    keys = name.split(".")
    value = doc
    for i, key in enumerate(keys):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{path}: field {'.'.join(keys[:i + 1])} is missing")
        value = value[key]
    _check_type(f"{path}: field {name}", value, types)
    return value


def _distinct_strings(what: str, names) -> None:
    """Fail naming ``what`` and the first of ``names`` that is not a string
    or repeats an earlier one."""
    if set(map(type, names)) <= {str} and len(set(names)) == len(names):
        return
    first = {}
    for i, name in enumerate(names):
        if type(name) is not str or first.setdefault(name, i) != i:
            raise ValueError(f"{what} holds {reprlib.repr(name)} at entry {i}, "
                             "expected distinct strings")


def _read(path, fh, start: int, shapes: dict) -> dict:
    """The arrays named in ``shapes``, read in ``_PACKED`` order from the
    bytes after the header line of ``fh``, ``start`` bytes in, each into a
    native buffer of its own. Before any is allocated, fails naming both
    byte counts unless the shapes account for exactly those bytes."""
    needed = sum(np.dtype(_PACKED[name]).itemsize * math.prod(shape)
                 for name, shape in shapes.items())
    size = os.fstat(fh.fileno()).st_size - start
    if needed != size:
        raise ValueError(f"{path}: fields counts, config and relation_names account for "
                         f"{needed} bytes of arrays, but {size} follow the header")
    arrays = {}
    for name, dtype in _PACKED.items():
        if name in shapes:
            arr = np.empty(shapes[name], dtype)
            fh.readinto(arr)
            if not arr.dtype.isnative:  # a big-endian machine swaps in place
                arr = arr.byteswap(inplace=True).view(arr.dtype.newbyteorder("="))
            arrays[name] = arr
    return arrays


def _ids(path, arrays: dict, name: str, bound: int) -> np.ndarray:
    """The int64 array ``name``, each entry in [0, bound). Fails naming the
    array and the first bad id."""
    ids = arrays[name]
    if ids.size and (ids.min() < 0 or ids.max() >= bound):  # the mask only to name one
        bad = int(((ids < 0) | (ids >= bound)).argmax())
        raise ValueError(f"{path}: array {name} holds id {ids[bad]} at entry {bad}, "
                         f"expected an integer in [0, {bound})")
    return ids


def _finite(path, arrays: dict, name: str) -> None:
    """Fail naming the array ``name`` unless its values are all finite."""
    if not np.isfinite(arrays[name]).all():
        raise ValueError(f"{path}: array {name} holds a value that is not finite")


def _task_layout(config: TrainConfig, relation_names):
    """The activations and weight shapes ``_layer_shapes`` gives (the input
    width squared when bilinear), plus the binary head's for prediction."""
    layers = _layer_shapes(config, len(relation_names or ()))
    power = 2 if config.bilinear else 1
    shapes = {f"W{i}": (out, omega ** power) for i, (out, omega, _) in enumerate(layers, 1)}
    if config.task == "prediction":
        shapes.update(Wh=(2, config.hidden_dim), bh=(2,))
    return [activation for _, _, activation in layers], shapes


def save_checkpoint(model: TrainedModel, path) -> None:
    """Write ``model`` to ``path``, by way of a temporary file beside it
    that replaces ``path`` once complete, so a failed or interrupted write
    leaves what was there; a failure names ``path``. Refuses a model whose
    task, clusters, features, vocabularies, activations or arrays
    ``load_checkpoint`` would not give back, and compares the edge types
    and node features, not a dense edge table."""
    vocabularies = {"relation_names": model.relation_names, "entity_names": model.entity_names}
    for name, names in vocabularies.items():
        _distinct_strings(f"{path}: not saved, the model's {name}", names or ())
    if model.clusters.num_nodes != model.structure.num_nodes:
        raise ValueError(f"{path}: not saved, the model's clusters cover "
                         f"{model.clusters.num_nodes} nodes, its structure "
                         f"{model.structure.num_nodes}")
    activations, shapes = _task_layout(model.config, model.relation_names)
    arrays, structure, names = model.params.trainable(), model.structure, model.entity_names
    edge_type = None if model.edge_type is None else np.asarray(model.edge_type)
    same = {"task": model.task == model.config.task,
            "clusters": (model.clusters.k, model.clusters.balance_epsilon)
            == (model.config.clusters, BALANCE_EPSILON),
            # a relation id per edge, or none for prediction
            "edge_type": edge_type is None if model.task == "prediction" else (
                edge_type is not None and edge_type.dtype.kind in "iu"
                and edge_type.shape == (structure.num_edges,)
                and ((0 <= edge_type) & (edge_type < len(model.relation_names or ()))).all()),
            "node_x": np.array_equal(node_onehot(model.clusters), model.node_x),
            "entity_names": not names or len(names) == structure.num_nodes,
            "activations": [layer.activation for layer in model.layers] == activations,
            "arrays": {name: arr.shape for name, arr in arrays.items()} == shapes}
    wrong = [name for name, ok in same.items() if not ok]
    if wrong:
        raise ValueError(f"{path}: not saved, the model's {wrong[0]} disagrees with its "
                         "config, structure, cluster ids or vocabularies")
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "config": model.config.to_dict(),
           "counts": {"nodes": structure.num_nodes, "edges": structure.num_edges,
                      "pins": structure.pins.size},
           **{name: list(names) if names else None for name, names in vocabularies.items()}}
    arrays.update(edge_ptr=structure.edge_ptr, pins=structure.pins, edge_type=edge_type,
                  cluster_of=model.clusters.cluster_of)
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temporary, "xb") as fh:
            fh.write(json.dumps(doc, sort_keys=True).encode("ascii") + b"\n")
            for name, dtype in _PACKED.items():
                if arrays.get(name) is not None:
                    fh.write(np.ascontiguousarray(arrays[name], dtype))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temporary, path)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the checkpoint, not the temporary file
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from None
        raise


def load_checkpoint(path) -> TrainedModel:
    """The model ``save_checkpoint`` wrote to ``path``.

    The file holds one JSON header line (the config, the relation and
    entity vocabularies and the node, edge and pin counts) followed by
    the raw bytes of the structure's CSR arrays, the edge types, the
    cluster ids and the weights, whose shapes follow from the header. A
    malformed file fails with one ``ValueError`` line that names the file
    and the field; a missing or unreadable file raises ``OSError``.
    """
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
            raise ValueError(f"{path}: checkpoint version {doc.get('version')} unsupported "
                             f"(expected {FORMAT_VERSION})")
        fields = _typed(path, doc, "config", dict)
        try:
            config = TrainConfig.from_dict(fields)
        except ValueError as exc:
            raise ValueError(f"{path}: field config: {exc}") from None
        # the relational tasks rebuild their typed structure from the vocabularies
        relational = config.task != "prediction"
        vocabulary = (list,) if relational else (list, type(None))
        relation_names, entity_names = (
            _typed(path, doc, name, *vocabulary) for name in ("relation_names", "entity_names"))
        counts = {}
        for key in ("nodes", "edges", "pins"):
            count = counts[key] = _typed(path, doc, f"counts.{key}", int)
            if count < 0:
                raise ValueError(f"{path}: field counts.{key} is {count}, "
                                 "expected a non-negative integer")
        n, m = counts["nodes"], counts["edges"]
        for name, names in (("relation_names", relation_names), ("entity_names", entity_names)):
            _distinct_strings(f"{path}: field {name}", names or ())
        if entity_names is not None and len(entity_names) != n:
            raise ValueError(f"{path}: field entity_names holds {len(entity_names)} names, "
                             f"but field counts.nodes is {n}")
        activations, weights = _task_layout(config, relation_names)
        shapes = {"edge_ptr": (m + 1,), "pins": (counts["pins"],), "cluster_of": (n,),
                  **({"edge_type": (m,)} if relational else {}), **weights}
        arrays = _read(path, fh, len(header), shapes)
    del doc  # every packed array is read; free the header before the model
    cluster_of = _ids(path, arrays, "cluster_of", config.clusters)
    pins = _ids(path, arrays, "pins", n)
    edge_ptr = _ids(path, arrays, "edge_ptr", pins.size + 1)
    empty = np.flatnonzero(np.diff(edge_ptr) <= 0)
    if edge_ptr[0] != 0 or edge_ptr[-1] != pins.size or empty.size:
        where = f"edge {empty[0]} is empty; " if empty.size else ""
        raise ValueError(f"{path}: array edge_ptr: {where}expected offsets rising strictly "
                         f"from 0 to {pins.size}, the pin count")
    # each edge lists distinct ids in ascending order, as ``build_hypergraph``
    # stores them, so the pins rise strictly but where an edge starts
    wrong = pins[1:] <= pins[:-1]
    wrong[edge_ptr[1:-1] - 1] = False
    if wrong.any():
        edge = int(np.searchsorted(edge_ptr, wrong.argmax(), side="right")) - 1
        members = pins[edge_ptr[edge]:edge_ptr[edge + 1]].tolist()
        raise ValueError(f"{path}: array pins holds edge {edge} as "
                         f"{reprlib.repr(members)}, expected ascending and distinct node ids")
    del wrong  # before the structure's arrays are allocated
    structure = Hypergraph(edge_ptr, pins, n)
    edge_type = _ids(path, arrays, "edge_type", len(relation_names)) if relational else None
    layers = []
    for name, activation in zip(("W1", "W2"), activations):
        try:  # the one pass over the weight: LayerParams checks it is finite
            layers.append(LayerParams(arrays[name], activation))
        except ValueError as exc:
            _finite(path, arrays, name)
            raise ValueError(f"{path}: array {name}: {exc}") from None
    for name in ("Wh", "bh"):
        if name in arrays:
            _finite(path, arrays, name)
    clusters = ClusterAssignment(cluster_of, config.clusters)
    return TrainedModel(config.task, config, structure, clusters,
                        ModelParams(*layers, arrays.get("Wh"), arrays.get("bh")),
                        node_x=node_onehot(clusters), edge_type=edge_type,
                        relation_names=tuple(relation_names) if relation_names else None,
                        entity_names=tuple(entity_names) if entity_names else None)
