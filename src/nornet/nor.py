"""Composite recurrent layers: several small recurrent subnetworks running
in parallel on a shared input, merged by a relu combiner.  A layer follows
a topology, the rule (kind, n, hidden, wiring) for laying out n subnetworks
of cells all `hidden` wide:

  parallel    n one-tier relu subnetworks
  parallel2   n two-tier subnetworks (tier 2 reads tier 1's output, or with
              layer_input wiring the layer input)
  mixed       n = (one_tier, two_tier) relu subnetworks side by side
  shared      n two-tier subnetworks whose tier 2 reads *all* tier-1
              outputs (tier1_all wiring)
  gated       n pairs of (sigmoid gate, relu generalization) cells combined
              by elementwise product

LAYER_KINDS is the one registry of layer kinds: these five plus the plain
cells, each with its short name, default subnetwork count and the wirings
it takes (the first is its default).  NorTopology checks a rule against it
and is the one place that turns (kind, n) into subnetworks.

Each recurrent neuron keeps its own memory vector: the output it produced on
the previous step.  The combiner is o = relu(W [s_1; ...; s_m] + b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import CellParams, CellState, cell_step, new_cell_params
from .tensor import Tensor, add, block_matmul, concat, elementwise_mul, relu
from .tensor import matmul  # noqa: F401  perfbench's tracer test reads nor.matmul

__all__ = [
    "NorTopology", "NorLayer", "LayerKind", "LAYER_KINDS",
    "ma_topology", "ma2_topology", "ms_topology", "ss_topology", "gate_topology",
    "component_o_combine", "unroll", "bidirectional_wrap",
]


@dataclass(frozen=True)
class LayerKind:
    """One layer kind: its name, the short name presets and the command line
    use, its default subnetwork count (a pair for "mixed", the pair count for
    "gated"; None for a plain cell) and, for composite kinds, the tier-2
    wirings it takes, default first."""

    kind: str
    alias: str
    default_n: int | tuple[int, int] | None = None
    wirings: tuple[str, ...] = ("tier1_own",)


LAYER_KINDS = {e.kind: e for e in (
    LayerKind("simple", "irnn"),
    LayerKind("gru", "gru"),
    LayerKind("lstm", "lstm"),
    LayerKind("parallel", "ma", 3),
    LayerKind("parallel2", "ma2", 3, ("tier1_own", "layer_input")),
    LayerKind("mixed", "ms", (2, 2)),
    LayerKind("shared", "ss", 3, ("tier1_all",)),
    LayerKind("gated", "gate", 3),
)}


@dataclass(frozen=True)
class NorTopology:
    """A composite layer's rule: n subnetworks of `kind`, every cell
    `hidden` wide, tier 2 wired by `wiring` (None: the kind's default).

    n is an int, a (one_tier, two_tier) pair for "mixed", or the pair count
    for "gated".
    """

    kind: str
    n: int | tuple[int, int]
    hidden: int
    wiring: str | None = None

    def __post_init__(self):
        entry = LAYER_KINDS.get(self.kind)
        if entry is None or entry.default_n is None:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        n = self.n
        if self.kind == "mixed":
            if not (isinstance(n, tuple) and len(n) == 2 and min(n) >= 0 and sum(n) >= 1):
                raise ValueError(f"mixed needs a nonzero (one_tier, two_tier) pair, got {n!r}")
        elif not (isinstance(n, int) and n >= 1):
            raise ValueError(f"{self.kind} layers need a positive count, got {n!r}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be positive, got {self.hidden}")
        if self.wiring is None:
            object.__setattr__(self, "wiring", entry.wirings[0])
        elif self.wiring not in entry.wirings:
            raise ValueError(f"{self.kind} layers take wiring {' or '.join(entry.wirings)}, "
                             f"got {self.wiring!r}")

    def cell_kinds(self) -> list[tuple[str, ...]]:
        """The cell kind of every tier of every subnetwork."""
        if self.kind == "gated":
            return [("gate",), ("simple",)] * self.n
        if self.kind == "mixed":
            return [("simple",)] * self.n[0] + [("simple", "simple")] * self.n[1]
        return [("simple",) * (1 if self.kind == "parallel" else 2)] * self.n

    def tier2_feed(self, layer_input, tier1: list, i: int, join):
        """What tier 2 of subnetwork i reads: its own tier-1 output, the
        layer input, or every tier-1 output joined.  Takes widths (join=sum)
        or tensors (join=concat)."""
        if self.wiring == "layer_input":
            return layer_input
        if self.wiring == "tier1_all":
            return join(tier1)
        return tier1[i]

    def merge(self, outs: list, product) -> list:
        """What the combiner reads: every subnetwork output, or for "gated"
        the product of each (gate, generalization) pair."""
        if self.kind == "gated":
            return [product(g, s) for g, s in zip(outs[0::2], outs[1::2])]
        return outs

    def plan(self, input_dim: int) -> tuple[list[list[tuple[str, int, int]]], int]:
        """Parameter shapes at a layer input width.

        Returns (cell kind, input width, hidden) for every tier of every
        subnetwork, and the width of the vector the combiner reads.  The
        layer builder and the parameter counter both read this plan.
        """
        h = self.hidden
        kinds = self.cell_kinds()
        widths = [h] * len(kinds)
        cells = [[(kind, self.tier2_feed(input_dim, widths, i, sum) if t else input_dim, h)
                  for t, kind in enumerate(tiers)] for i, tiers in enumerate(kinds)]
        return cells, sum(self.merge(widths, lambda gate, gen: gate))


def ma_topology(n: int, hidden: int) -> NorTopology:
    """n parallel one-tier relu subnetworks."""
    return NorTopology("parallel", n, hidden)


def ma2_topology(n: int, hidden: int, wiring: str | None = None) -> NorTopology:
    """n parallel two-tier relu subnetworks; tier 2 reads its own tier 1
    (tier1_own, the default) or the layer input (layer_input)."""
    return NorTopology("parallel2", n, hidden, wiring)


def ms_topology(n_one: int, n_two: int, hidden: int) -> NorTopology:
    """n_one one-tier plus n_two two-tier relu subnetworks."""
    return NorTopology("mixed", (n_one, n_two), hidden)


def ss_topology(n: int, hidden: int) -> NorTopology:
    """n two-tier subnetworks; every tier 2 reads the concat of all tier-1 outputs."""
    return NorTopology("shared", n, hidden)


def gate_topology(pairs: int, hidden: int) -> NorTopology:
    """pairs of (sigmoid gate, relu generalization) cells, merged by product."""
    return NorTopology("gated", pairs, hidden)


def component_o_combine(parts: list[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """Output component: relu(W [s_1; ...; s_m] + b), bit-invariant under
    reordering the subnetworks with W's column blocks (see block_matmul)."""
    return relu(add(block_matmul(w, parts), b))


class NorLayer:
    """A full composite layer: cells per (subnetwork, tier) plus combiner."""

    def __init__(self, topology: NorTopology, input_dim: int, rng: np.random.Generator):
        self.topology = topology
        self.input_dim = input_dim
        h_out = topology.hidden
        cells, concat_dim = topology.plan(input_dim)
        self.cells: list[list[CellParams]] = [
            [new_cell_params(kind, d, hidden, rng) for kind, d, hidden in tiers]
            for tiers in cells]
        lim = np.sqrt(6.0 / (concat_dim + h_out))
        self.w_mlp = Tensor(rng.uniform(-lim, lim, size=(h_out, concat_dim)))
        self.b_mlp = Tensor(np.zeros(h_out))

    def initial_state(self) -> list[list[Tensor]]:
        """One memory per recurrent neuron, indexed [subnetwork][tier]."""
        return [[Tensor(np.zeros(cell.hidden)) for cell in tiers] for tiers in self.cells]

    def step(self, x: Tensor, state: list) -> tuple[Tensor, list]:
        if x.data.shape != (self.input_dim,):
            raise ValueError(f"layer expects input shape ({self.input_dim},), got {x.data.shape}")
        # tier 1 everywhere first, so shared wiring can see every output;
        # every subnetwork reads the same input tensor
        tier1 = [cell_step(x, CellState(h=state[i][0]), tiers[0]).h
                 for i, tiers in enumerate(self.cells)]
        new_state = []
        for i, tiers in enumerate(self.cells):
            mem = [tier1[i]]
            if len(tiers) == 2:
                feed = self.topology.tier2_feed(x, tier1, i, concat)
                mem.append(cell_step(feed, CellState(h=state[i][1]), tiers[1]).h)
            new_state.append(mem)
        merged = self.topology.merge([mem[-1] for mem in new_state], elementwise_mul)
        return component_o_combine(merged, self.w_mlp, self.b_mlp), new_state

    def named_parameters(self, prefix: str = "layer") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, tiers in enumerate(self.cells):
            for j, cell in enumerate(tiers):
                out.update(cell.named(f"{prefix}.sub{i}.tier{j}"))
        out[f"{prefix}.combiner.w"] = self.w_mlp
        out[f"{prefix}.combiner.b"] = self.b_mlp
        return out


def unroll(layer, inputs: list[Tensor], state=None):
    """Run a layer over a sequence; returns (outputs, final state).

    Works on anything exposing step/initial_state, so single cells wrapped
    as layers and composite layers share this path.
    """
    if not inputs:
        raise ValueError("cannot unroll over an empty sequence")
    if state is None:
        state = layer.initial_state()
    outputs = []
    for x in inputs:
        out, state = layer.step(x, state)
        outputs.append(out)
    return outputs, state


def bidirectional_wrap(forward_layer, backward_layer, inputs: list[Tensor]) -> list[Tensor]:
    """Run one layer left-to-right and an independent one right-to-left,
    concatenating the two outputs at each position."""
    fwd, _ = unroll(forward_layer, inputs)
    bwd_rev, _ = unroll(backward_layer, list(reversed(inputs)))
    bwd = list(reversed(bwd_rev))
    return [concat([f, b]) for f, b in zip(fwd, bwd)]
