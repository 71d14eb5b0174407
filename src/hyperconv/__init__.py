"""Hypergraph learning toolkit.

Pipeline: multilevel k-way partitioning bootstraps one-hot node/edge
features, a two-layer trainable hyperedge convolution turns them into
hyperedge representations, and task drivers solve knowledge-hypergraph
completion, hyperedge prediction, and hyperedge classification.
"""

from .hypergraph import Hypergraph, KnowledgeHypergraph, build_hypergraph
from .partition import (
    ClusterAssignment,
    coarsen,
    cut,
    fm_refine,
    partition,
)
from .features import (
    edge_cluster_onehot,
    edge_cluster_pool,
    knowledge_edge_init,
    node_onehot,
)
from .convolution import (
    LayerParams,
    OMEGA_KINDS,
    e2e_backward,
    e2e_forward,
    e2n,
    init_layer,
    n2e,
)
from .metrics import accuracy, auc, hit_at, mrr, rank_of_true
from .training import (
    Adam,
    ModelParams,
    NegativeSample,
    RunReport,
    SamplingError,
    TrainConfig,
    TrainedModel,
    evaluate,
    predict_edge,
    predict_relation,
    sample_negative,
    train_classification,
    train_completion,
    train_prediction,
)
from .data import Splits, load_knowledge, load_simple
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "KnowledgeHypergraph",
    "build_hypergraph",
    "ClusterAssignment",
    "coarsen",
    "cut",
    "fm_refine",
    "partition",
    "edge_cluster_onehot",
    "edge_cluster_pool",
    "knowledge_edge_init",
    "node_onehot",
    "LayerParams",
    "OMEGA_KINDS",
    "e2e_backward",
    "e2e_forward",
    "e2n",
    "init_layer",
    "n2e",
    "accuracy",
    "auc",
    "hit_at",
    "mrr",
    "rank_of_true",
    "Adam",
    "ModelParams",
    "NegativeSample",
    "RunReport",
    "SamplingError",
    "TrainConfig",
    "TrainedModel",
    "evaluate",
    "predict_edge",
    "predict_relation",
    "sample_negative",
    "train_classification",
    "train_completion",
    "train_prediction",
    "Splits",
    "load_knowledge",
    "load_simple",
    "load_checkpoint",
    "save_checkpoint",
]
