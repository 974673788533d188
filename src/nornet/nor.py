"""Recurrent layers and the one rule that lays them out.

A layer is a plain cell (simple, gru, lstm) or a composite layer: several
small recurrent subnetworks running in parallel on a shared input, merged
by a relu combiner.  LayerSpec(kind, n, wiring) is a layer's topology; at a
hidden width every cell is `hidden` wide and the composite kinds lay out n
subnetworks as follows:

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
it takes (the first is its default).  LayerSpec checks itself against it
and is the one place that turns (kind, n) into subnetworks.  NorLayer
builds every layer from a spec's plan; a plain kind is one one-tier
subnetwork with no combiner.

Each recurrent neuron keeps its own cells.CellState: the output it produced
on the previous step (and an lstm's cell memory).  The combiner is
o = relu(W [s_1; ...; s_m] + b).

No cell reads another's state and nothing feeds back, so a layer of relu and
sigmoid cells runs time-major: one (d, T) input, one cells.scan op per cell
and one combiner op over all T columns.  gru and lstm layers step per token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import CellParams, CellState, cell_step, new_cell_params, scan, zero_state
from .tensor import ShapeError, Tensor, _emit, _keyed_sum, _mm2, col, concat, elementwise_mul, stack
from .tensor import matmul  # noqa: F401  perfbench's tracer test reads nor.matmul

__all__ = [
    "LayerSpec", "LayerKind", "LAYER_KINDS", "NorLayer",
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
class LayerSpec:
    """One recurrent layer's topology: a plain cell, or n subnetworks of a
    composite kind with tier 2 wired by `wiring`.

    For a composite kind, n=None and wiring=None resolve to the kind's
    default count and first listed wiring; n is an int, a (one_tier,
    two_tier) pair for "mixed", or the pair count for "gated".  A plain
    kind takes neither, so n is None exactly for a plain spec.  The width
    is not part of the rule: layers are built and counted at a hidden size.
    """

    kind: str
    n: int | tuple[int, int] | None = None
    wiring: str | None = None

    def __post_init__(self):
        entry = LAYER_KINDS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if entry.default_n is None:
            if self.n is not None or self.wiring is not None:
                raise ValueError(f"plain layer kind {self.kind!r} takes no subnetwork count or wiring")
            return
        n = entry.default_n if self.n is None else self.n
        if self.kind == "mixed":
            if not (isinstance(n, tuple) and len(n) == 2 and min(n) >= 0 and sum(n) >= 1):
                raise ValueError(f"mixed needs a nonzero (one_tier, two_tier) pair, got {n!r}")
        elif not (isinstance(n, int) and n >= 1):
            raise ValueError(f"{self.kind} layers need a positive count, got {n!r}")
        wiring = entry.wirings[0] if self.wiring is None else self.wiring
        if wiring not in entry.wirings:
            raise ValueError(f"{self.kind} layers take wiring {' or '.join(entry.wirings)}, "
                             f"got {wiring!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "wiring", wiring)

    def cell_kinds(self) -> list[tuple[str, ...]]:
        """The cell kind of every tier of every subnetwork; a plain layer is
        one one-tier subnetwork of its own kind."""
        if self.n is None:
            return [(self.kind,)]
        if self.kind == "gated":
            return [("gate",), ("simple",)] * self.n
        if self.kind == "mixed":
            return [("simple",)] * self.n[0] + [("simple", "simple")] * self.n[1]
        return [("simple",) * (1 if self.kind == "parallel" else 2)] * self.n

    def tier2_feeds(self, layer_input, tier1: list, join) -> list:
        """What tier 2 of each subnetwork reads: its own tier-1 output, the
        layer input, or every tier-1 output joined once for all.  Takes
        widths (join=sum) or tensors (join=concat)."""
        if self.wiring == "layer_input":
            return [layer_input] * len(tier1)
        if self.wiring == "tier1_all":
            return [join(tier1)] * len(tier1)
        return tier1

    def merge(self, outs: list, product) -> list:
        """What the combiner reads: every subnetwork output, or for "gated"
        the product of each (gate, generalization) pair."""
        if self.kind == "gated":
            return [product(g, s) for g, s in zip(outs[0::2], outs[1::2])]
        return outs

    def plan(self, input_dim: int, hidden: int
             ) -> tuple[list[list[tuple[str, int, int]]], int | None]:
        """Parameter shapes at a layer input width and a hidden width.

        Returns (cell kind, input width, hidden) for every tier of every
        subnetwork, and the width of the vector the combiner reads (None
        for a plain cell, which has no combiner).  NorLayer and the
        parameter counter both read this plan.
        """
        kinds = self.cell_kinds()
        widths = [hidden] * len(kinds)
        feeds = self.tier2_feeds(input_dim, widths, sum)
        cells = [[(kind, feeds[i] if t else input_dim, hidden) for t, kind in enumerate(tiers)]
                 for i, tiers in enumerate(kinds)]
        if self.n is None:
            return cells, None
        return cells, sum(self.merge(widths, lambda gate, gen: gate))


def component_o_combine(parts: list[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """Output component relu(W [s_1; ...; s_m] + b) as one tape op over vector
    parts or, column by column, parts with one column per step.  A column's
    block products are added in an order keyed on their contents (see
    block_matmul), so moving a subnetwork with its block of W moves no bit."""
    W, B, xs = w.data, b.data[:, None], [p.data for p in parts]
    ps = [x.reshape(x.shape[0], -1) for x in xs]
    edges = np.cumsum([0] + [p.shape[0] for p in ps])
    if not ps or W.shape != (B.shape[0], edges[-1]) or any(p.shape[1:] != ps[0].shape[1:] for p in ps):
        raise ShapeError(f"combiner: weight {W.shape}, bias {b.shape}, parts {[p.shape for p in ps]}")
    blocks = [W[:, i:j] for i, j in zip(edges, edges[1:])]
    prods = [_mm2(blk, p) for blk, p in zip(blocks, ps)]
    pre = np.stack([_keyed_sum(cols) for cols in zip(*(q.T for q in prods))], axis=1) + B
    mask = pre > 0

    def bwd(g):
        G = g.reshape(pre.shape) * mask
        return ((G, np.concatenate(ps).T), G.sum(axis=1),
                *((blk.T @ G).reshape(x.shape) for blk, x in zip(blocks, xs)))

    out = np.where(mask, pre, 0.0).reshape((-1,) + parts[0].shape[1:])
    return _emit("combine", out, (w, b, *parts), bwd)


class NorLayer:
    """A recurrent layer: cells per (subnetwork, tier) and, when the plan
    gives the combiner a width, a relu combiner.  A plain kind is one
    one-tier subnetwork without one, so its output is its cell's h."""

    def __init__(self, spec: LayerSpec, input_dim: int, hidden: int, rng: np.random.Generator):
        cells, concat_dim = spec.plan(input_dim, hidden)
        self.topology = spec
        self.input_dim = input_dim
        self.cells: list[list[CellParams]] = [
            [new_cell_params(kind, d, h, rng) for kind, d, h in tiers] for tiers in cells]
        self.w_mlp = self.b_mlp = None
        if concat_dim is not None:
            lim = np.sqrt(6.0 / (concat_dim + hidden))
            self.w_mlp = Tensor(rng.uniform(-lim, lim, size=(hidden, concat_dim)))
            self.b_mlp = Tensor(np.zeros(hidden))

    def initial_state(self) -> list[list[CellState]]:
        """One state per recurrent neuron, indexed [subnetwork][tier]."""
        return [[zero_state(cell.kind, cell.hidden) for cell in tiers] for tiers in self.cells]

    def step(self, x: Tensor, state: list[list[CellState]]) -> tuple[Tensor, list]:
        """One token: unroll over [x] from state."""
        outs, state = unroll(self, [x], state)
        return outs[0], state

    def run(self, x: Tensor, state: list[list[CellState]]) -> tuple[Tensor, list]:
        """A relu and sigmoid layer over a (d, T) input: (hidden, T) outputs, final state."""
        # tier 1 everywhere first, so shared wiring can see every output;
        # every subnetwork reads the same input tensor
        runs = [[scan(x, state[i][0], tiers[0])] for i, tiers in enumerate(self.cells)]
        feeds = self.topology.tier2_feeds(x, [r[0][0] for r in runs], concat)
        for i, tiers in enumerate(self.cells):
            if len(tiers) == 2:
                runs[i].append(scan(feeds[i], state[i][1], tiers[1]))
        new_state = [[st for _, st in r] for r in runs]
        outs = [r[-1][0] for r in runs]
        if self.w_mlp is None:
            return outs[0], new_state
        merged = self.topology.merge(outs, elementwise_mul)
        return component_o_combine(merged, self.w_mlp, self.b_mlp), new_state

    def named_parameters(self, prefix: str = "layer") -> dict[str, Tensor]:
        """A plain layer names its cell's parameters prefix.w_*/u_*/b_*."""
        if self.w_mlp is None:
            return self.cells[0][0].named(prefix)
        out: dict[str, Tensor] = {}
        for i, tiers in enumerate(self.cells):
            for j, cell in enumerate(tiers):
                out.update(cell.named(f"{prefix}.sub{i}.tier{j}"))
        out[f"{prefix}.combiner.w"] = self.w_mlp
        out[f"{prefix}.combiner.b"] = self.b_mlp
        return out


def unroll(layer: NorLayer, inputs: list[Tensor], state: list[list[CellState]] | None = None):
    """(outputs, final state) of a layer over a sequence from state, by default
    its initial state; gru and lstm step per token, the rest run time-major."""
    if not inputs:
        raise ValueError("cannot unroll over an empty sequence")
    state = layer.initial_state() if state is None else state
    cell = layer.cells[0][0]
    if cell.kind in ("gru", "lstm"):
        outputs = []
        for x in inputs:
            state = [[cell_step(x, state[0][0], cell)]]
            outputs.append(state[0][0].h)
        return outputs, state
    out, state = layer.run(stack(inputs), state)
    return [col(out, t) for t in range(len(inputs))], state


def bidirectional_wrap(forward_layer, backward_layer, inputs: list[Tensor]) -> list[Tensor]:
    """Run one layer left-to-right and an independent one right-to-left,
    concatenating the two outputs at each position."""
    fwd, _ = unroll(forward_layer, inputs)
    bwd_rev, _ = unroll(backward_layer, list(reversed(inputs)))
    bwd = list(reversed(bwd_rev))
    return [concat([f, b]) for f, b in zip(fwd, bwd)]
