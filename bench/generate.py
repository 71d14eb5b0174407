"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its size parameters and a seed:
the same seed writes byte-identical files. The program under test only
ever sees the files (or, for the query workload, the checkpoint) these
functions write.

Run as a script to write one workload's inputs into a directory; the
benchmark does this in a child process so the generator's memory never
shows in the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class PlantedGraphSize:
    """A plain hypergraph whose edges mostly stay inside one community."""

    nodes: int
    edges: int
    communities: int
    arity_lo: int
    arity_hi: int
    noise: float  # share of edges whose members come from anywhere


@dataclass(frozen=True)
class PlantedKnowledgeSize:
    """Facts whose relation owns an entity pool; noisy facts ignore pools."""

    facts: int
    entities: int
    relations: int
    arity_lo: int
    arity_hi: int
    noise: float  # share of facts whose members come from anywhere
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)


def _draw_members(rng, pool_of, noise, n, arity_lo, arity_hi, owners):
    """One member tuple per owner: from its pool, or anywhere for noise."""
    out = []
    for owner in owners:
        size = int(rng.integers(arity_lo, arity_hi + 1))
        if rng.random() < noise:
            members = rng.choice(n, size=size, replace=False)
        else:
            members = rng.choice(pool_of[owner], size=size, replace=False)
        out.append(sorted(int(v) for v in members))
    return out


def _pools(rng, n: int, groups: int) -> list[np.ndarray]:
    """Split a seeded shuffle of the ids into ``groups`` near-equal pools,
    so pools never line up with id order (or with a block partition)."""
    return np.array_split(rng.permutation(n), groups)


def planted_graph_edges(size: PlantedGraphSize, seed: int) -> list[list[int]]:
    """Member lists of a planted-community hypergraph."""
    rng = np.random.default_rng([seed, 1])
    pools = _pools(rng, size.nodes, size.communities)
    homes = rng.integers(size.communities, size=size.edges)
    return _draw_members(
        rng, pools, size.noise, size.nodes, size.arity_lo, size.arity_hi, homes
    )


def planted_facts(
    size: PlantedKnowledgeSize, seed: int
) -> tuple[list[int], list[list[int]]]:
    """Relation ids and member lists of a noisy planted knowledge hypergraph."""
    rng = np.random.default_rng([seed, 2])
    pools = _pools(rng, size.entities, size.relations)
    relations = rng.integers(size.relations, size=size.facts)
    members = _draw_members(
        rng, pools, size.noise, size.entities, size.arity_lo, size.arity_hi, relations
    )
    return [int(r) for r in relations], members


def write_planted_graph(size: PlantedGraphSize, seed: int, path: Path) -> None:
    """One hyperedge per line, members as ``n<id>`` tokens."""
    lines = (" ".join(f"n{v}" for v in m) for m in planted_graph_edges(size, seed))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def split_counts(total: int, ratios) -> tuple[int, int, int]:
    n_train = int(ratios[0] * total)
    n_valid = int(ratios[1] * total)
    return n_train, n_valid, total - n_train - n_valid


def write_planted_knowledge(size: PlantedKnowledgeSize, seed: int, directory: Path) -> None:
    """train/valid/test.txt, tab separated, relation first, in draw order."""
    relations, members = planted_facts(size, seed)
    lines = [
        "\t".join([f"r{r}"] + [f"e{v}" for v in m]) for r, m in zip(relations, members)
    ]
    n_train, n_valid, _ = split_counts(len(lines), size.ratios)
    bounds = (0, n_train, n_train + n_valid, len(lines))
    directory.mkdir(parents=True, exist_ok=True)
    for name, lo, hi in zip(("train", "valid", "test"), bounds, bounds[1:]):
        (directory / f"{name}.txt").write_text(
            "\n".join(lines[lo:hi]) + "\n", encoding="utf-8"
        )


# ---------------------------------------------------------------------------
# query checkpoint, built directly from public names


def planted_layer_weights(layer, d: int, slots: int, gain: float) -> None:
    """Add ``gain`` to the squared-feature terms ``(j, j)`` of output j.

    With the bilinear lift, output j then grows with the square of input
    feature j. Fed the relation-share columns, the two layers rank a
    candidate's majority relation first, so the untrained model has a
    quality the planted structure predicts.
    """
    for j in range(slots):
        layer.weight[j, j * d + j] += gain


def build_query_checkpoint(size: PlantedKnowledgeSize, clusters: int, hidden: int,
                           seed: int, directory: Path) -> None:
    """Write ``model.json`` plus ``queries.json`` (member sets and true
    relations of the held-out facts), skipping partition and training."""
    from hyperconv import (
        ClusterAssignment,
        KnowledgeHypergraph,
        ModelParams,
        TrainConfig,
        TrainedModel,
        build_hypergraph,
        init_layer,
        knowledge_edge_init,
        node_onehot,
        save_checkpoint,
    )

    relations, members = planted_facts(size, seed)
    n_train, _, _ = split_counts(len(members), size.ratios)
    n, r, k = size.entities, size.relations, clusters
    structure = build_hypergraph(members[:n_train], num_nodes=n)
    kh = KnowledgeHypergraph(
        structure,
        relations[:n_train],
        tuple(f"r{i}" for i in range(r)),
        tuple(f"e{v}" for v in range(n)),
    )
    assignment = ClusterAssignment(np.arange(n, dtype=np.int64) * k // n, k)
    edge_init = knowledge_edge_init(kh, assignment)

    rng = np.random.default_rng([seed, 3])
    cfg = TrainConfig(task="completion", clusters=k, hidden_dim=hidden, seed=seed)
    d1 = edge_init.shape[1] + k
    d2 = hidden + k
    layer1 = init_layer(hidden, d1, rng, True, "relu")
    layer2 = init_layer(r, d2, rng, True, "identity")
    planted_layer_weights(layer1, d1, r, gain=4.0)
    planted_layer_weights(layer2, d2, r, gain=4.0)
    model = TrainedModel(
        task="completion",
        config=cfg,
        structure=structure,
        clusters=assignment,
        params=ModelParams(layer1, layer2),
        edge_init=edge_init,
        node_x=node_onehot(assignment),
        relation_names=kh.relation_names,
        entity_names=kh.entity_names,
    )
    directory.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, directory / "model.json")
    held_out = {"sets": members[n_train:], "relations": relations[n_train:]}
    (directory / "queries.json").write_text(json.dumps(held_out), encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kind", choices=("graph", "knowledge", "checkpoint"))
    p.add_argument("--size", required=True, help="JSON object of size fields")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    fields = json.loads(args.size)
    if args.kind == "graph":
        write_planted_graph(PlantedGraphSize(**fields), args.seed, args.out)
    elif args.kind == "knowledge":
        fields["ratios"] = tuple(fields["ratios"])
        write_planted_knowledge(PlantedKnowledgeSize(**fields), args.seed, args.out)
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        extra = {key: fields.pop(key) for key in ("clusters", "hidden")}
        fields["ratios"] = tuple(fields["ratios"])
        build_query_checkpoint(
            PlantedKnowledgeSize(**fields), extra["clusters"], extra["hidden"],
            args.seed, args.out,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
