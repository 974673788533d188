"""Standard task presets: architectures, budgets, and training settings.

Three presets cover the benchmark setups the sizing grid is calibrated
against: sentence-level sentiment over 5 classes (sst), question type
classification over 6 coarse classes (trec), and named entity tagging
with 9 chunk tags (conll).
"""

from __future__ import annotations

from .budget import HeadSpec, ModelConfig
from .nor import LAYER_KINDS, LayerSpec
from .training import TrainConfig

__all__ = [
    "TASKS", "STANDARD_TOPOLOGIES", "TOPOLOGY_ALIASES", "REFERENCE_SIZES",
    "model_config", "train_config", "default_budgets",
]

# short names used by the command line and the sizing table
TOPOLOGY_ALIASES = {entry.alias: entry.kind for entry in LAYER_KINDS.values()}

STANDARD_TOPOLOGIES = ("irnn", "gru", "lstm", "ma", "ms", "ss", "gate")

TASKS = {
    "sst": dict(input_dim=300, n_layers=2, head=HeadSpec("softmax", 5),
                bidirectional=False, fmt="tsv_label_text",
                budgets=(200_000, 400_000, 800_000)),
    "trec": dict(input_dim=300, n_layers=1, head=HeadSpec("softmax", 6),
                 bidirectional=False, fmt="trec_colon",
                 budgets=(100_000, 200_000, 400_000)),
    "conll": dict(input_dim=300, n_layers=1, head=HeadSpec("crf", 9),
                  bidirectional=True, fmt="conll",
                  budgets=(200_000, 400_000, 800_000)),
}

_TRAIN = {
    "sst": dict(lr=0.0002, batch_size=20, max_epochs=25, dropout=0.5,
                patience=5, lr_decay=1.0),
    "trec": dict(lr=0.0005, batch_size=20, max_epochs=25, dropout=0.5,
                 patience=5, lr_decay=1.0),
    "conll": dict(lr=0.005, batch_size=20, max_epochs=25, dropout=0.5,
                  patience=5, lr_decay=0.95),
}

# Reference hidden sizes for each cell of the standard sizing grid,
# keyed (task, topology, budget).  emit_sizing_table flags any solver
# result that drifts from these instead of silently overwriting them.
_REFERENCE_ROWS = {
    ("sst", 200_000): (212, 107, 88, 89, 66, 61, 61),
    ("sst", 400_000): (320, 166, 139, 136, 100, 90, 97),
    ("sst", 800_000): (468, 252, 213, 203, 149, 132, 149),
    ("trec", 100_000): (198, 86, 68, 74, 54, 53, 45),
    ("trec", 200_000): (319, 148, 119, 122, 88, 83, 79),
    ("trec", 400_000): (497, 244, 199, 193, 139, 126, 133),
    ("conll", 200_000): (197, 86, 67, 74, 54, 53, 45),
    ("conll", 400_000): (319, 148, 119, 122, 88, 83, 79),
    ("conll", 800_000): (497, 244, 199, 193, 139, 126, 133),
}

REFERENCE_SIZES = {
    (task, topo, budget): h
    for (task, budget), row in _REFERENCE_ROWS.items()
    for topo, h in zip(STANDARD_TOPOLOGIES, row)
}


def default_budgets(task: str) -> tuple[int, ...]:
    return TASKS[task]["budgets"]


def model_config(task: str, topology: str, hidden: int | None = None) -> ModelConfig:
    """Architecture for a task preset with a given layer topology."""
    if task not in TASKS:
        raise ValueError(f"unknown task preset {task!r}; choose from {sorted(TASKS)}")
    kind = TOPOLOGY_ALIASES.get(topology, topology)
    arch = TASKS[task]
    spec = LayerSpec(kind=kind)
    return ModelConfig(
        input_dim=arch["input_dim"],
        layers=(spec,) * arch["n_layers"],
        head=arch["head"],
        bidirectional=arch["bidirectional"],
        hidden=hidden,
    )


def train_config(task: str, **overrides) -> TrainConfig:
    if task not in TASKS:
        raise ValueError(f"unknown task preset {task!r}; choose from {sorted(TASKS)}")
    settings = dict(_TRAIN[task])
    settings.update(overrides)
    return TrainConfig(**settings)
