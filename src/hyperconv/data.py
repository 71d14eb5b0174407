"""Dataset loaders and train/valid/test split bookkeeping.

Knowledge datasets arrive as three tab-separated files (one fact per
line, relation first); plain hypergraphs as one whitespace-separated
member list per line, split by seeded shuffle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph, KnowledgeHypergraph, build_hypergraph

logger = logging.getLogger(__name__)

KNOWLEDGE_FILES = ("train.txt", "valid.txt", "test.txt")


@dataclass(frozen=True)
class Splits:
    """Disjoint edge-id sets for training, validation, and testing."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "valid", "test"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or len(arr) == 0:
                raise ValueError(f"empty {name} split")

    def check(self, num_edges: int) -> None:
        """Verify ids are in range and the three parts never overlap."""
        parts = [self.train, self.valid, self.test]
        combined = np.concatenate(parts)
        if combined.min() < 0 or combined.max() >= num_edges:
            raise ValueError("split contains an edge id out of range")
        if len(np.unique(combined)) != len(combined):
            raise ValueError("splits overlap")

    @classmethod
    def from_ratios(cls, num_edges: int, ratios, seed: int) -> "Splits":
        """Seeded uniform shuffle, then contiguous slices.

        Train and valid sizes round down; the remainder goes to test.
        """
        perm = np.random.default_rng(seed).permutation(num_edges)
        n_train = math.floor(ratios[0] * num_edges)
        n_valid = math.floor(ratios[1] * num_edges)
        return cls(
            train=np.sort(perm[:n_train]),
            valid=np.sort(perm[n_train : n_train + n_valid]),
            test=np.sort(perm[n_train + n_valid :]),
        )


def _utf8_lines(path: Path):
    """Numbered lines of a UTF-8 text file, newlines read as in text mode.

    Undecodable bytes are escaped to lone surrogates, which strict UTF-8
    never yields, so a line holding one names where the file is bad.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():  # O(1); an escape is never ASCII
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path.name}:{lineno}: not UTF-8 text") from None
            yield lineno, line


def load_knowledge(directory) -> tuple[KnowledgeHypergraph, Splits]:
    """Read train.txt / valid.txt / test.txt of tab- or space-separated facts.

    Each line is `relation entity entity...`, split on tabs when the line
    has one (so tokens may contain spaces) and on runs of whitespace
    otherwise. Vocabularies cover the union of all three files in line
    order (transductive: entities seen only at test time still get
    incidence slots). Edge ids follow file order, train block first.
    """
    directory = Path(directory)
    paths = [directory / name for name in KNOWLEDGE_FILES]
    for p in paths:
        if not p.is_file():
            raise FileNotFoundError(f"missing split file {p}")

    relation_ids: dict[str, int] = {}
    entity_ids: dict[str, int] = {}
    edges: list[tuple[int, ...]] = []
    types: list[int] = []
    boundaries = []
    for p in paths:
        for lineno, line in _utf8_lines(p):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t") if "\t" in line else line.split()
            if len(fields) < 2:
                raise ValueError(
                    f"{p.name}:{lineno}: expected `relation entity...` separated"
                    f" by tabs or spaces, got {line!r}"
                )
            rel = fields[0]
            if not rel:
                raise ValueError(f"{p.name}:{lineno}: empty relation token")
            if rel not in relation_ids:
                relation_ids[rel] = len(relation_ids)
            members = []
            for tok in fields[1:]:
                if tok not in entity_ids:
                    entity_ids[tok] = len(entity_ids)
                members.append(entity_ids[tok])
            edges.append(tuple(members))
            types.append(relation_ids[rel])
        boundaries.append(len(edges))

    base = build_hypergraph(edges, num_nodes=len(entity_ids))
    kh = KnowledgeHypergraph(
        base, types, tuple(relation_ids), tuple(entity_ids)
    )
    splits = Splits(
        train=np.arange(0, boundaries[0]),
        valid=np.arange(boundaries[0], boundaries[1]),
        test=np.arange(boundaries[1], boundaries[2]),
    )
    logger.info(
        "loaded %d entities, %d relations, %d/%d/%d facts",
        base.num_nodes, kh.num_relations,
        len(splits.train), len(splits.valid), len(splits.test),
    )
    return kh, splits


def _read_edge_file(path) -> tuple[Hypergraph, tuple[str, ...]]:
    """Read one hyperedge per line of whitespace-separated node tokens.

    Node tokens map to ids in first-seen order. Blank lines are skipped
    with a warning. Returns the hypergraph and the node vocabulary in id
    order.
    """
    path = Path(path)
    vocab: dict[str, int] = {}
    edges: list[tuple[int, ...]] = []
    for lineno, line in _utf8_lines(path):
        tokens = line.split()
        if not tokens:
            logger.warning("%s:%d: blank line skipped", path.name, lineno)
            continue
        members = []
        for tok in tokens:
            if tok not in vocab:
                vocab[tok] = len(vocab)
            members.append(vocab[tok])
        edges.append(tuple(members))
    if not edges:
        raise ValueError(f"{path}: no hyperedges found")
    return build_hypergraph(edges, num_nodes=len(vocab)), tuple(vocab)


def load_simple(path, split_ratios=(0.7, 0.1, 0.2), seed: int = 0):
    """``_read_edge_file`` plus a seeded shuffle split: returns the
    hypergraph, the splits, and the node vocabulary in id order."""
    h, vocab = _read_edge_file(path)
    return h, Splits.from_ratios(h.num_edges, split_ratios, seed), vocab
