"""Figure 6: running time vs F1 of the continuous DGNNs.

The paper plots per-graph running time (microseconds) against F1 for
TP-GNN and the four continuous baselines on four datasets; models
closer to the top-left (fast + accurate) are better.  The reproduction
measures inference wall-clock per graph on the test split after
training at the configured scale, scoring in no-grad batches (see
:func:`~repro.training.trainer.inference_time_per_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.registry import make_model
from repro.experiments.config import ExperimentConfig, snapshot_size_for
from repro.experiments.reporting import render_table
from repro.experiments.runner import build_dataset
from repro.training.trainer import evaluate, inference_time_per_graph, train_model

#: Models compared in Fig. 6.
RUNTIME_MODELS = ("TGN", "DyGNN", "TGAT", "GraphMixer", "TP-GNN-SUM", "TP-GNN-GRU")
RUNTIME_DATASETS = ("Forum-java", "HDFS", "Gowalla", "Brightkite")


@dataclass(frozen=True)
class RuntimePoint:
    """One scatter point of Fig. 6."""

    dataset: str
    model: str
    microseconds_per_graph: float
    f1: float


def run_runtime(
    config: ExperimentConfig,
    datasets: tuple[str, ...] = RUNTIME_DATASETS,
    models: tuple[str, ...] = RUNTIME_MODELS,
    progress=None,
) -> list[RuntimePoint]:
    """Train each model once per dataset; time inference per graph."""
    points: list[RuntimePoint] = []
    for dataset_name in datasets:
        dataset = build_dataset(dataset_name, config)
        train_data, test_data = dataset.split(config.train_fraction)
        for model_name in models:
            model = make_model(
                model_name,
                in_features=dataset.feature_dim,
                seed=config.seed,
                hidden_size=config.hidden_size,
                time_dim=config.time_dim,
                snapshot_size=snapshot_size_for(dataset_name),
            )
            train_model(model, train_data, config.train_config())
            metrics = evaluate(model, test_data)
            seconds = inference_time_per_graph(model, test_data)
            point = RuntimePoint(
                dataset=dataset_name,
                model=model_name,
                microseconds_per_graph=seconds * 1e6,
                f1=metrics.f1,
            )
            points.append(point)
            if progress is not None:
                progress(point)
    return points


def format_runtime(points: list[RuntimePoint]) -> str:
    """Render the Fig. 6 scatter as a table sorted by dataset, then time."""
    rows = [
        {
            "Dataset": p.dataset,
            "Model": p.model,
            "us/graph": f"{p.microseconds_per_graph:,.0f}",
            "F1": f"{100 * p.f1:.2f}",
        }
        for p in sorted(points, key=lambda p: (p.dataset, p.microseconds_per_graph))
    ]
    return render_table(rows, title="Fig. 6 — running time (per graph) vs F1, continuous DGNNs")
