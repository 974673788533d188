"""Exact parameter counting and hidden-size solving.

Counts cover trainable parameters only: cell weights and biases, combiner
weights and biases, head projection and biases, and CRF transitions.  The
frozen embedding table is excluded.  A layer is counted from
LayerSpec.plan, the same shape plan nor.NorLayer builds from, and every
cell from the gate vocabulary in cells.GATE_NAMES that allocates its
matrices, so counts and instantiated models cannot drift apart.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

from .cells import GATE_NAMES
from .nor import LayerSpec

__all__ = [
    "LayerSpec", "HeadSpec", "ModelConfig", "BudgetError",
    "count_params", "solve_hidden_size", "emit_sizing_table",
]


class BudgetError(ValueError):
    """Raised when a parameter budget cannot be met."""


@dataclass(frozen=True)
class HeadSpec:
    kind: str       # "softmax" | "crf"
    classes: int

    def __post_init__(self):
        if self.kind not in ("softmax", "crf"):
            raise ValueError(f"unknown head kind {self.kind!r}")
        least = 2 if self.kind == "softmax" else 1
        if self.classes < least:
            raise ValueError(f"{self.kind} head needs at least {least} classes, got {self.classes}")


@dataclass(frozen=True)
class ModelConfig:
    """Full architecture minus the embedding table.

    hidden may stay None when the config exists only to be sized by
    solve_hidden_size.
    """

    input_dim: int
    layers: tuple[LayerSpec, ...]
    head: HeadSpec
    bidirectional: bool = False
    hidden: int | None = None

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.layers:
            raise ValueError("need at least one recurrent layer")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError("hidden must be positive when set")

    def with_hidden(self, hidden: int) -> "ModelConfig":
        return ModelConfig(self.input_dim, self.layers, self.head,
                           self.bidirectional, hidden)


def _cell_count(kind: str, input_dim: int, hidden: int) -> int:
    # input matrix, recurrent matrix and bias for each gate
    return len(GATE_NAMES[kind]) * (input_dim * hidden + hidden * hidden + hidden)


def count_params(config: ModelConfig, hidden: int | None = None) -> int:
    """Exact trainable-parameter count for the architecture at a hidden size."""
    h = config.hidden if hidden is None else hidden
    if h is None:
        raise ValueError("no hidden size: set config.hidden or pass hidden=")
    if h < 1:
        raise ValueError(f"hidden size must be positive, got {h}")
    directions = 2 if config.bidirectional else 1
    total = 0
    d = config.input_dim
    for spec in config.layers:
        cells, combiner_in = spec.plan(d, h)
        layer = sum(_cell_count(*cell) for tiers in cells for cell in tiers)
        if combiner_in is not None:
            layer += h * (combiner_in + 1)
        total += directions * layer
        d = directions * h
    k = config.head.classes
    total += k * d + k
    if config.head.kind == "crf":
        total += (k + 2) * (k + 2)
    return total


def solve_hidden_size(config: ModelConfig, budget: int) -> int:
    """Hidden size whose exact count lands nearest the budget.

    The count is strictly increasing in h and, since every layer holds an
    h x h recurrent matrix, exceeds h^2; so the first h whose count reaches
    the budget lies in 1..isqrt(budget) + 1.  The solver bisects that range
    for it, counting each h once, and compares it with its predecessor;
    exact ties prefer the smaller h.  A budget below the h=1 count raises
    BudgetError; any other budget has an answer.
    """
    count = functools.cache(functools.partial(count_params, config))
    if budget < count(1):
        raise BudgetError(f"budget {budget} below minimum {count(1)} (h=1)")
    above = 1 + bisect.bisect_left(range(1, math.isqrt(budget) + 2), budget, key=count)
    return min(range(max(above - 1, 1), above + 1), key=lambda h: (abs(count(h) - budget), h))


def emit_sizing_table() -> str:
    """Solve the standard sizing grid and render it as an aligned table:
    one row per (task, budget), one column per standard topology.

    A solved size that disagrees with the reference grid is flagged in
    place as solved(!reference), never replaced.
    """
    from . import presets

    topologies = presets.STANDARD_TOPOLOGIES
    width = 10
    lines = [f"{'task':<8}{'budget':>9}  " + "".join(f"{t:>{width}}" for t in topologies)]
    for task in presets.TASKS:
        for budget in presets.default_budgets(task):
            cells = []
            for topo in topologies:
                h = solve_hidden_size(presets.model_config(task, topo), budget)
                ref = presets.REFERENCE_SIZES.get((task, topo, budget))
                cells.append(str(h) if ref in (None, h) else f"{h}(!{ref})")
            lines.append(f"{task:<8}{budget:>9}  " + "".join(f"{c:>{width}}" for c in cells))
    return "\n".join(lines)
