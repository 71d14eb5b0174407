"""Hash every seeded output of the pipeline, one line per configuration.

A change that must keep behaviour bit-identical runs this script on the
parent commit and on the change, each against its own ``src/``, and
diffs the two outputs:

    PYTHONPATH=src python tools/exactness.py > after.txt
    PYTHONPATH=/path/to/parent/src python tools/exactness.py > before.txt
    diff before.txt after.txt

Both runs need the same BLAS thread count: the kernel and field lines'
products round differently when BLAS splits them over more threads. The
script pins BLAS to one thread (``blas_pin``) before numpy loads.

A training line hashes the report minus ``wall_seconds``, the final
weights, ``edge_init``, ``cluster_of``, ``evaluate()`` and one
``predict_relation``/``predict_edge`` call, and then, for the model a
``save_checkpoint`` -> ``load_checkpoint`` round trip gives back, its
full state (``edge_ptr``, ``pins``, ``cluster_of``, ``clusters.k`` and
``balance_epsilon``, ``edge_init``, ``node_x``, every trainable array,
the activations, the vocabularies and ``config.to_dict()``) and the same
``evaluate()`` and call again. The file's bytes are not hashed, so two
checkpoint formats that restore the same model print the same line. The
grid is task x omega x bilinear x two sizes, 36 lines; ``small completion
omega=var bilinear=on`` and its classification twin pin set-up
and scoring only, as their weights move less than 1e-9 in training. A
partition line hashes ``cluster_of`` of ``partition``: five on random
4-uniform graphs, where the 20k-edge line is the one the partition tests
pin as ``9d1d289d83853d70``, and two on planted graphs of mixed arity
shaped like the benchmark's training structures. The coarsen line
hashes the four CSR arrays (``edge_ptr``, ``pins``, ``node_ptr``,
``node_edges``) of those two planted graphs and of every level
``partition(k=16)`` coarsens them to, as recorded from its own
``coarsen`` calls. A kernel line hashes the
scores of one ``e2e_forward`` call on a 128-edge batch of a planted
graph, at hidden width 64 and 16 clusters, and the weight gradients
``e2e_backward`` returns for it; at that size both bilinear layers run
several column blocks, and the second layer's last block is short. The
kernel line marked ``lift=on`` makes the same call with layer 1 read from
``lift_edges``' packed table of that graph, whole, as a prediction run
reads it. The field line does the same, with mean pooling, on a graph
with ten edges per node and 48 edge feature columns: layer 1 of its
batch reads every row of the edge feature table. The order line
hashes the epoch orders ``_epoch_order`` draws from one seed for a fixed
count and cluster array, block-ordered and uniform. The negatives line
hashes the member sets ``_draw_run_negatives`` draws from one seed on a
planted graph of the prediction benchmark's shape, so a change to the
sampler's draws shows in the diff even where no training line moves. The
script prints 49 lines; the whole run takes under a minute on one core.
"""

from __future__ import annotations

import blas_pin  # noqa: F401  (pins BLAS before numpy loads)

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import hyperconv as hc
from hyperconv.convolution import lift_edges
from hyperconv.training import _draw_run_negatives, _epoch_order

TASKS = ("completion", "classification", "prediction")
OMEGAS = ("mean", "var", "minmax")
# (name, communities, nodes per community, edges, hidden width, clusters)
SIZES = (("small", 4, 12, 120, 8, 4), ("large", 6, 20, 300, 16, 8))
PARTITIONS = ((5000, 2), (5000, 3), (5000, 8), (5000, 16), (20000, 16))
# (nodes, edges, smallest and largest arity, clusters), 16 communities each
PLANTED_PARTITIONS = ((1600, 1680, 3, 10, 16), (1280, 2240, 2, 6, 16))
# (nodes, edges, smallest and largest arity, hidden width, clusters, batch)
KERNEL = (1600, 2000, 3, 10, 64, 16, 128)
# (nodes, edges, smallest and largest arity, edge feature columns, hidden
# width, clusters, batch)
FIELD = (600, 6000, 2, 4, 48, 16, 16, 128)
# (items, clusters, epochs)
ORDER = (1000, 16, 3)
# (nodes, edges, smallest and largest arity, seed)
NEGATIVES = (1600, 2400, 3, 10, 9)


def planted(rng, communities, nodes_per, num_edges, size_lo, size_hi):
    """Edges drawn inside one community each, and each edge's community."""
    edges, homes = [], []
    for _ in range(num_edges):
        c = int(rng.integers(communities))
        pool = np.arange(c * nodes_per, (c + 1) * nodes_per)
        size = int(rng.integers(size_lo, size_hi + 1))
        edges.append(sorted(rng.choice(pool, size=size, replace=False).tolist()))
        homes.append(c)
    return edges, homes


def knowledge(communities, nodes_per, num_edges):
    """Facts whose relation is their community, split 70/15/15 in file order."""
    edges, homes = planted(np.random.default_rng(1), communities, nodes_per, num_edges, 3, 3)
    n = communities * nodes_per
    base = hc.build_hypergraph(edges, num_nodes=n)
    kh = hc.KnowledgeHypergraph(base, homes, tuple(f"r{c}" for c in range(communities)),
                                tuple(f"e{v}" for v in range(n)))
    a, b = int(0.7 * num_edges), int(0.85 * num_edges)
    splits = hc.Splits(np.arange(a), np.arange(a, b), np.arange(b, num_edges))
    return kh, splits


def training_hash(task, omega, bilinear, size) -> str:
    _, communities, nodes_per, num_edges, hidden, k = size
    cfg = hc.TrainConfig(task=task, clusters=k, omega=omega, bilinear=bilinear,
                         hidden_dim=hidden, epochs=4, patience=2, learning_rate=1e-2,
                         batch_size=32, seed=3)
    if task == "prediction":
        edges, _ = planted(np.random.default_rng(2), communities, nodes_per, num_edges, 3, 5)
        data = hc.build_hypergraph(edges, num_nodes=communities * nodes_per)
        splits = hc.Splits.from_ratios(data.num_edges, cfg.split_ratios, cfg.seed)
        model, report = hc.train_prediction(data, cfg, splits=splits)
        predict, candidate = hc.predict_edge, [0, 1, nodes_per]
    else:
        data, splits = knowledge(communities, nodes_per, num_edges)
        train = hc.train_completion if task == "completion" else hc.train_classification
        model, report = train(data, cfg, splits)
        predict, candidate = hc.predict_relation, [0, 1, 1, nodes_per]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        hc.save_checkpoint(model, path)
        loaded = hc.load_checkpoint(path)
    doc = report.to_dict()
    del doc["wall_seconds"]
    outputs = [doc]
    for m in (model, loaded):
        outputs += [hc.evaluate(m, data, splits), predict(m, candidate)]
    digest = hashlib.sha256()
    digest.update(json.dumps(outputs, sort_keys=True).encode())
    for arr in (*model.params.trainable().values(), model.edge_init,
                model.clusters.cluster_of):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(json.dumps(model_state(loaded), sort_keys=True).encode())
    for arr in (loaded.structure.edge_ptr, loaded.structure.pins, loaded.clusters.cluster_of,
                loaded.edge_init, loaded.node_x, *loaded.params.trainable().values()):
        digest.update(arr.dtype.str.encode() + np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def model_state(model) -> dict:
    """The scalar and vocabulary part of a model's state."""
    return {"task": model.task, "config": model.config.to_dict(),
            "k": model.clusters.k, "balance_epsilon": model.clusters.balance_epsilon,
            "num_nodes": model.structure.num_nodes, "trainable": list(model.params.trainable()),
            "activations": [layer.activation for layer in model.layers],
            "relation_names": model.relation_names, "entity_names": model.entity_names}


def partition_hash(edges, num_nodes, k) -> str:
    c = hc.partition(hc.build_hypergraph(edges, num_nodes=num_nodes), k)
    return hashlib.sha256(c.cluster_of.tobytes()).hexdigest()[:16]


def kernel_hash(lifted: bool = False) -> str:
    n, num_edges, lo, hi, hidden, k, batch = KERNEL
    rng = np.random.default_rng(4)
    edges, _ = planted(rng, 16, n // 16, num_edges, lo, hi)
    h = hc.build_hypergraph(edges, num_nodes=n)
    node_x = np.eye(k)[np.arange(n) * k // n]
    edge_init = rng.uniform(size=(num_edges, k))
    layers = (hc.init_layer(hidden, 2 * k, rng, True, "relu"),
              hc.init_layer(hidden, hidden + k, rng, True, "identity"))
    members = h.edge_members
    targets = [members[e] for e in rng.choice(num_edges, size=batch, replace=False)]
    lift = lift_edges("minmax", h, edge_init, node_x) if lifted else None
    scores, cache = hc.e2e_forward(layers, "minmax", h, edge_init, node_x, targets, lift=lift)
    grads = hc.e2e_backward(cache, rng.normal(size=scores.shape))
    digest = hashlib.sha256()
    for arr in (scores, grads["W1"], grads["W2"]):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def field_hash() -> str:
    n, num_edges, lo, hi, cols, hidden, k, batch = FIELD
    rng = np.random.default_rng(5)
    edges, _ = planted(rng, 4, n // 4, num_edges, lo, hi)
    h = hc.build_hypergraph(edges, num_nodes=n)
    node_x = np.eye(k)[np.arange(n) * k // n]
    edge_init = rng.uniform(size=(num_edges, cols))
    layers = (hc.init_layer(hidden, cols + k, rng, True, "relu"),
              hc.init_layer(hidden, hidden + k, rng, True, "identity"))
    members = h.edge_members
    targets = [members[e] for e in rng.choice(num_edges, size=batch, replace=False)]
    scores, cache = hc.e2e_forward(layers, "mean", h, edge_init, node_x, targets)
    grads = hc.e2e_backward(cache, rng.normal(size=scores.shape))
    digest = hashlib.sha256()
    for arr in (scores, grads["W1"], grads["W2"]):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def order_hash() -> str:
    count, k, epochs = ORDER
    blocks = np.random.default_rng(6).integers(k, size=count)
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    for _ in range(epochs):
        for arr in (_epoch_order(rng, count, blocks), _epoch_order(rng, count)):
            digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


def negatives_hash() -> str:
    n, num_edges, lo, hi, seed = NEGATIVES
    edges, _ = planted(np.random.default_rng(8), 16, n // 16, num_edges, lo, hi)
    h = hc.build_hypergraph(edges, num_nodes=n)
    splits = hc.Splits.from_ratios(num_edges, (0.7, 0.1, 0.2), seed)
    drawn = _draw_run_negatives(h, splits, np.random.default_rng(seed))
    doc = {part: [s.members for s in samples] for part, samples in drawn.items()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def coarsen_hash() -> str:
    digest = hashlib.sha256()
    module = sys.modules["hyperconv.partition"]
    real = module.coarsen
    for n, num_edges, lo, hi, k in PLANTED_PARTITIONS:
        edges, _ = planted(np.random.default_rng(0), 16, n // 16, num_edges, lo, hi)
        h = hc.build_hypergraph(edges, num_nodes=n)
        levels = [h]

        def recording(fine, *args):
            coarse, projection, weights = real(fine, *args)
            if coarse.num_nodes < fine.num_nodes:
                levels.append(coarse)
            return coarse, projection, weights

        # ``partition`` looks ``coarsen`` up when it runs, as the bench's hook needs
        with mock.patch.object(module, "coarsen", recording):
            hc.partition(h, k)
        for level in levels:
            for arr in (level.edge_ptr, level.pins, level.node_ptr, level.node_edges):
                digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


def uniform_edges(num_edges):
    """``num_edges`` random 4-member edges on num_edges / 2 nodes."""
    rng = np.random.default_rng(0)
    return [rng.choice(num_edges // 2, size=4, replace=False).tolist()
            for _ in range(num_edges)]


def main() -> None:
    for size, task, omega, bilinear in itertools.product(SIZES, TASKS, OMEGAS, (True, False)):
        name = f"{task} omega={omega} bilinear={'on' if bilinear else 'off'}"
        print(f"{size[0]} {name} {training_hash(task, omega, bilinear, size)}", flush=True)
    for num_edges, k in PARTITIONS:
        digest = partition_hash(uniform_edges(num_edges), num_edges // 2, k)
        print(f"partition m={num_edges} k={k} {digest}", flush=True)
    for n, num_edges, lo, hi, k in PLANTED_PARTITIONS:
        edges, _ = planted(np.random.default_rng(0), 16, n // 16, num_edges, lo, hi)
        digest = partition_hash(edges, n, k)
        print(f"partition planted n={n} m={num_edges} arity={lo}-{hi} k={k} {digest}",
              flush=True)
    print(f"coarsen planted levels {coarsen_hash()}", flush=True)
    n, num_edges, lo, hi, hidden, k, batch = KERNEL
    for lifted in (False, True):
        print(f"kernel n={n} m={num_edges} arity={lo}-{hi} hidden={hidden} k={k} batch={batch}"
              f"{' lift=on' if lifted else ''} {kernel_hash(lifted)}", flush=True)
    n, num_edges, lo, hi, cols, hidden, k, batch = FIELD
    print(f"field n={n} m={num_edges} arity={lo}-{hi} columns={cols} hidden={hidden} k={k} "
          f"batch={batch} agg=mean {field_hash()}", flush=True)
    count, k, epochs = ORDER
    print(f"order count={count} k={k} epochs={epochs} {order_hash()}", flush=True)
    n, num_edges, lo, hi, seed = NEGATIVES
    print(f"negatives n={n} m={num_edges} arity={lo}-{hi} seed={seed} {negatives_hash()}",
          flush=True)


if __name__ == "__main__":
    main()
