"""Training loops, metrics, and the paper's evaluation protocol."""

from repro.training.metrics import Metrics, MetricSummary, compute_metrics, roc_auc
from repro.training.trainer import (
    SCORE_WIDTH,
    TrainConfig,
    TrainResult,
    evaluate,
    inference_time_per_graph,
    load_train_state,
    run_trials,
    save_train_state,
    score_logits,
    train_model,
    trial_seed,
)

__all__ = [
    "Metrics",
    "MetricSummary",
    "compute_metrics",
    "roc_auc",
    "TrainConfig",
    "TrainResult",
    "train_model",
    "evaluate",
    "score_logits",
    "SCORE_WIDTH",
    "inference_time_per_graph",
    "run_trials",
    "trial_seed",
    "save_train_state",
    "load_train_state",
]
