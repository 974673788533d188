"""Exact parameter counting and hidden-size solving.

Counts cover trainable parameters only: cell weights and biases, combiner
weights and biases, head projection and biases, and CRF transitions.  The
frozen embedding table is excluded.  A composite layer is counted from
NorTopology.plan, the same shape plan NorLayer builds from, and every cell
from the gate vocabulary in cells.GATE_NAMES that allocates its matrices,
so counts and instantiated models cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cells import GATE_NAMES
from .nor import LAYER_KINDS, NorTopology

__all__ = [
    "LayerSpec", "HeadSpec", "ModelConfig", "BudgetError",
    "layer_topology", "count_params", "solve_hidden_size", "emit_sizing_table",
]


class BudgetError(ValueError):
    """Raised when a parameter budget cannot be met."""


@dataclass(frozen=True)
class LayerSpec:
    """One recurrent layer: a plain cell or a composite topology.

    n (the subnetwork count, as in NorTopology) and wiring pick the kind's
    default when None.  A composite spec is checked by the topology it
    builds; a plain cell takes neither.
    """

    kind: str
    n: int | tuple[int, int] | None = None
    wiring: str | None = None

    def __post_init__(self):
        entry = LAYER_KINDS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if entry.default_n is not None:
            layer_topology(self, 1)
        elif self.n is not None or self.wiring is not None:
            raise ValueError(f"plain layer kind {self.kind!r} takes no subnetwork count or wiring")


@dataclass(frozen=True)
class HeadSpec:
    kind: str       # "softmax" | "crf"
    classes: int

    def __post_init__(self):
        if self.kind not in ("softmax", "crf"):
            raise ValueError(f"unknown head kind {self.kind!r}")
        if self.classes < 1:
            raise ValueError("head needs at least one class")


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


def layer_topology(spec: LayerSpec, hidden: int) -> NorTopology | None:
    """Topology for a composite layer spec; None for plain cells."""
    default_n = LAYER_KINDS[spec.kind].default_n
    if default_n is None:
        return None
    return NorTopology(spec.kind, default_n if spec.n is None else spec.n, hidden, spec.wiring)


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
        topo = layer_topology(spec, h)
        if topo is None:
            layer = _cell_count(spec.kind, d, h)
        else:
            cells, combiner_in = topo.plan(d)
            layer = topo.hidden * (combiner_in + 1)
            for tiers in cells:
                for cell in tiers:
                    layer += _cell_count(*cell)
        total += directions * layer
        d = directions * h
    k = config.head.classes
    total += k * d + k
    if config.head.kind == "crf":
        total += (k + 2) * (k + 2)
    return total


def solve_hidden_size(config: ModelConfig, budget: int, tolerance: int | None = None) -> int:
    """Hidden size whose exact count lands nearest the budget.

    The count is strictly increasing in h, so the solver bisects for the
    first h at or above the budget and compares it with its predecessor,
    counting each h once; exact ties prefer the smaller h.  A budget below the h=1 count is an
    error.  When tolerance is given, the winning count must land within
    it or a BudgetError is raised.
    """
    counts: dict[int, int] = {}

    def count(h: int) -> int:
        if h not in counts:
            counts[h] = count_params(config, h)
        return counts[h]

    if budget < count(1):
        raise BudgetError(f"budget {budget} below minimum {count(1)} (h=1)")
    # every layer holds an h x h recurrent matrix, so the count at h exceeds
    # h^2 and this first bracket holds; doubling covers any case where not
    lo, hi = 1, math.isqrt(budget) + 1
    while count(hi) < budget:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if count(mid) < budget:
            lo = mid + 1
        else:
            hi = mid
    above = lo
    candidates = [above] if above == 1 else [above - 1, above]
    best = min(candidates, key=lambda h: (abs(count(h) - budget), h))
    if tolerance is not None and abs(count(best) - budget) > tolerance:
        raise BudgetError(
            f"no hidden size lands within {tolerance} of {budget}; "
            f"closest is h={best} with {count(best)}")
    return best


def emit_sizing_table(csv_format: bool = False) -> str:
    """Solve the standard sizing grid and render it for comparison.

    Any solved size that disagrees with the reference grid is flagged in
    place, never replaced.  csv_format=True emits one delimited row per
    (task, budget, topology) cell instead of the aligned table.
    """
    from . import presets

    topologies = presets.STANDARD_TOPOLOGIES
    rows = []
    for task in presets.TASKS:
        for budget in presets.default_budgets(task):
            cells = []
            for topo in topologies:
                config = presets.model_config(task, topo)
                h = solve_hidden_size(config, budget)
                ref = presets.REFERENCE_SIZES.get((task, topo, budget))
                cells.append((topo, h, count_params(config, h), ref))
            rows.append((task, budget, cells))

    if csv_format:
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["task", "budget", "topology", "hidden", "param_count",
                         "delta", "reference", "match"])
        for task, budget, cells in rows:
            for topo, h, count, ref in cells:
                writer.writerow([task, budget, topo, h, count, count - budget,
                                 "" if ref is None else ref,
                                 "" if ref is None else ("yes" if h == ref else "no")])
        return buf.getvalue()

    def fmt(h, ref):
        if ref is None or h == ref:
            return str(h)
        return f"{h}(!{ref})"

    width = 10
    header = f"{'task':<8}{'budget':>9}  " + "".join(f"{t:>{width}}" for t in topologies)
    lines = [header]
    for task, budget, cells in rows:
        line = f"{task:<8}{budget:>9}  " + "".join(
            f"{fmt(h, ref):>{width}}" for _, h, _, ref in cells)
        lines.append(line)
    return "\n".join(lines)
