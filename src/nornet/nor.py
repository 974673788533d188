"""Composite recurrent layers: several small recurrent subnetworks running
in parallel on a shared input, merged by a relu combiner.

A layer is described by a topology:

  parallel    n one-tier relu subnetworks
  parallel2   n two-tier subnetworks (tier 2 reads tier 1's output)
  mixed       one-tier and two-tier subnetworks side by side
  shared      two-tier subnetworks whose tier 2 reads *all* tier-1 outputs
  gated       pairs of (sigmoid gate, relu generalization) cells combined
              by elementwise product

LAYER_KINDS is the one registry of layer kinds: these five plus the plain
cells, each with its short name, default subnetwork count and topology
factory.

Each recurrent neuron keeps its own memory vector: the output it produced on
the previous step.  The combiner is o = relu(W [s_1; ...; s_m] + b) over the
subnetwork outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cells import CellParams, CellState, cell_step, new_cell_params
from .tensor import Tensor, add, block_matmul, concat, elementwise_mul, relu
from .tensor import matmul  # noqa: F401  perfbench's tracer test reads nor.matmul

__all__ = [
    "SubnetSpec", "NorTopology", "NorLayer", "LayerKind", "LAYER_KINDS",
    "ma_topology", "ma2_topology", "ms_topology", "ss_topology", "gate_topology",
    "component_o_combine", "unroll", "bidirectional_wrap",
]

# tier-2 input wiring choices
WIRINGS = ("tier1_own", "tier1_all", "layer_input")


@dataclass(frozen=True)
class SubnetSpec:
    """One subnetwork: 1 or 2 tiers of (cell kind, hidden dim)."""

    tiers: tuple[tuple[str, int], ...]
    wiring: str = "tier1_own"

    def __post_init__(self):
        if len(self.tiers) not in (1, 2):
            raise ValueError(f"subnetworks have 1 or 2 tiers, got {len(self.tiers)}")
        for kind, hidden in self.tiers:
            if kind not in ("simple", "gate"):
                raise ValueError(f"subnetwork cells must be 'simple' or 'gate', got {kind!r}")
            if hidden < 1:
                raise ValueError(f"tier hidden dim must be positive, got {hidden}")
        if self.wiring not in WIRINGS:
            raise ValueError(f"unknown wiring {self.wiring!r}")
        if len(self.tiers) == 1 and self.wiring != "tier1_own":
            raise ValueError("wiring only applies to two-tier subnetworks")


@dataclass(frozen=True)
class NorTopology:
    kind: str
    subnetworks: tuple[SubnetSpec, ...]
    combiner_out_dim: int

    def __post_init__(self):
        entry = LAYER_KINDS.get(self.kind)
        if entry is None or entry.topology is None:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if not self.subnetworks:
            raise ValueError("topology needs at least one subnetwork")
        if self.combiner_out_dim < 1:
            raise ValueError("combiner output dim must be positive")
        kind = self.kind
        subs = self.subnetworks
        if kind == "parallel":
            if any(len(s.tiers) != 1 for s in subs):
                raise ValueError("parallel topology is strictly one-tier")
        elif kind == "parallel2":
            if any(len(s.tiers) != 2 for s in subs):
                raise ValueError("parallel2 topology is strictly two-tier")
        elif kind == "shared":
            if any(len(s.tiers) != 2 or s.wiring != "tier1_all" for s in subs):
                raise ValueError("shared topology needs two-tier subnetworks wired tier1_all")
        elif kind == "gated":
            if len(subs) % 2 != 0:
                raise ValueError("gated topology pairs subnetworks, need an even count")
            for gate, gen in zip(subs[0::2], subs[1::2]):
                if len(gate.tiers) != 1 or len(gen.tiers) != 1:
                    raise ValueError("gated topology uses one-tier subnetworks")
                if gate.tiers[0][0] != "gate" or gen.tiers[0][0] != "simple":
                    raise ValueError("gated pairs are (sigmoid gate, relu generalization)")
                if gate.tiers[0][1] != gen.tiers[0][1]:
                    raise ValueError("gate and generalization dims must match within a pair")

    @property
    def n_subnetworks(self) -> int:
        return len(self.subnetworks)

    def plan(self, input_dim: int) -> tuple[list[list[tuple[str, int, int]]], int]:
        """Parameter shapes at a layer input width.

        Returns (cell kind, input width, hidden) for every tier of every
        subnetwork, and the width of the vector the combiner reads: one
        block per subnetwork, or one per pair for the gated topology.  The
        layer builder and the parameter counter both read this plan.
        """
        subs = self.subnetworks
        # tier 2 reads the layer input, every tier-1 output, or (tier1_own)
        # its own tier 1
        tier2_inputs = {"layer_input": input_dim,
                        "tier1_all": sum([s.tiers[0][1] for s in subs])}
        cells = []
        for s in subs:
            kind, hidden = s.tiers[0]
            tiers = [(kind, input_dim, hidden)]
            if len(s.tiers) == 2:
                kind2, hidden2 = s.tiers[1]
                tiers.append((kind2, tier2_inputs.get(s.wiring, hidden), hidden2))
            cells.append(tiers)
        merged = subs[0::2] if self.kind == "gated" else subs
        return cells, sum([s.tiers[-1][1] for s in merged])


def _uniform(kind, n, hidden, tiers, wiring="tier1_own", out_dim=None):
    spec = SubnetSpec(tiers=tiers, wiring=wiring) if len(tiers) == 2 else SubnetSpec(tiers=tiers)
    return NorTopology(kind=kind, subnetworks=(spec,) * n,
                       combiner_out_dim=hidden if out_dim is None else out_dim)


def ma_topology(n: int, hidden: int, out_dim: int | None = None) -> NorTopology:
    """n parallel one-tier relu subnetworks."""
    return _uniform("parallel", n, hidden, (("simple", hidden),), out_dim=out_dim)


def ma2_topology(n: int, hidden: int, wiring: str = "tier1_own",
                 out_dim: int | None = None) -> NorTopology:
    """n parallel two-tier relu subnetworks.

    wiring picks what tier 2 consumes: its own tier-1 output (default) or
    the raw layer input ("layer_input").
    """
    if wiring not in LAYER_KINDS["parallel2"].wirings:
        raise ValueError("parallel2 wiring is 'tier1_own' or 'layer_input'")
    tiers = (("simple", hidden), ("simple", hidden))
    return _uniform("parallel2", n, hidden, tiers, wiring=wiring, out_dim=out_dim)


def ms_topology(n_one: int, n_two: int, hidden: int, out_dim: int | None = None) -> NorTopology:
    """n_one one-tier plus n_two two-tier relu subnetworks."""
    if n_one < 0 or n_two < 0 or n_one + n_two < 1:
        raise ValueError("mixed topology needs a nonnegative split with at least one subnetwork")
    ones = (SubnetSpec(tiers=(("simple", hidden),)),) * n_one
    twos = (SubnetSpec(tiers=(("simple", hidden), ("simple", hidden))),) * n_two
    return NorTopology(kind="mixed", subnetworks=ones + twos,
                       combiner_out_dim=hidden if out_dim is None else out_dim)


def ss_topology(n: int, hidden: int, out_dim: int | None = None) -> NorTopology:
    """n two-tier subnetworks; every tier 2 reads the concat of all tier-1 outputs."""
    tiers = (("simple", hidden), ("simple", hidden))
    return _uniform("shared", n, hidden, tiers, wiring="tier1_all", out_dim=out_dim)


def gate_topology(pairs: int, hidden: int, out_dim: int | None = None) -> NorTopology:
    """pairs of (sigmoid gate, relu generalization) cells, merged by product."""
    if pairs < 1:
        raise ValueError("gated topology needs at least one pair")
    subs = []
    for _ in range(pairs):
        subs.append(SubnetSpec(tiers=(("gate", hidden),)))
        subs.append(SubnetSpec(tiers=(("simple", hidden),)))
    return NorTopology(kind="gated", subnetworks=tuple(subs),
                       combiner_out_dim=hidden if out_dim is None else out_dim)


def _mixed_topology(n, hidden: int, wiring: str) -> NorTopology:
    if not (isinstance(n, tuple) and len(n) == 2):
        raise ValueError("mixed layers take n as a (one_tier, two_tier) pair")
    return ms_topology(n[0], n[1], hidden)


@dataclass(frozen=True)
class LayerKind:
    """One layer kind: its name, the short name presets and the command line
    use, its default subnetwork count (a pair for "mixed", the pair count for
    "gated"), its topology factory (n, hidden, wiring) -> NorTopology, and the
    wirings its layer specs may name.  Plain cells have no count or factory."""

    kind: str
    alias: str
    default_n: int | tuple[int, int] | None = None
    topology: Callable[..., NorTopology] | None = None
    wirings: tuple[str, ...] = ("tier1_own",)


LAYER_KINDS = {e.kind: e for e in (
    LayerKind("simple", "irnn"),
    LayerKind("gru", "gru"),
    LayerKind("lstm", "lstm"),
    LayerKind("parallel", "ma", 3, lambda n, hidden, wiring: ma_topology(n, hidden)),
    LayerKind("parallel2", "ma2", 3, ma2_topology, ("tier1_own", "layer_input")),
    LayerKind("mixed", "ms", (2, 2), _mixed_topology),
    LayerKind("shared", "ss", 3, lambda n, hidden, wiring: ss_topology(n, hidden)),
    LayerKind("gated", "gate", 3, lambda n, hidden, wiring: gate_topology(n, hidden)),
)}


def component_o_combine(parts: list[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """Output component: relu(W [s_1; ...; s_m] + b), bit-invariant under
    reordering the subnetworks with W's column blocks (see block_matmul)."""
    return relu(add(block_matmul(w, parts), b))


class NorLayer:
    """A full composite layer: cells per (subnetwork, tier) plus combiner."""

    def __init__(self, topology: NorTopology, input_dim: int, rng: np.random.Generator):
        self.topology = topology
        self.input_dim = input_dim
        self.out_dim = topology.combiner_out_dim
        cells, concat_dim = topology.plan(input_dim)
        self.cells: list[list[CellParams]] = [
            [new_cell_params(kind, d, hidden, rng) for kind, d, hidden in tiers]
            for tiers in cells]
        h_out = topology.combiner_out_dim
        lim = np.sqrt(6.0 / (concat_dim + h_out))
        self.w_mlp = Tensor(rng.uniform(-lim, lim, size=(h_out, concat_dim)))
        self.b_mlp = Tensor(np.zeros(h_out))

    def initial_state(self) -> list[list[Tensor]]:
        """One memory per recurrent neuron, indexed [subnetwork][tier]."""
        return [[Tensor(np.zeros(hidden)) for _, hidden in spec.tiers]
                for spec in self.topology.subnetworks]

    def step(self, x: Tensor, state: list) -> tuple[Tensor, list]:
        if x.data.shape != (self.input_dim,):
            raise ValueError(f"layer expects input shape ({self.input_dim},), got {x.data.shape}")
        topo = self.topology

        # tier 1 everywhere first, so shared wiring can see every output;
        # every subnetwork reads the same input tensor
        tier1 = []
        for i in range(topo.n_subnetworks):
            st = cell_step(x, CellState(h=state[i][0]), self.cells[i][0])
            tier1.append(st.h)

        outs = []
        new_state = []
        for i, spec in enumerate(topo.subnetworks):
            mem = [tier1[i]]
            top = tier1[i]
            if len(spec.tiers) == 2:
                if spec.wiring == "tier1_own":
                    feed = tier1[i]
                elif spec.wiring == "layer_input":
                    feed = x
                else:
                    feed = concat(tier1)
                st2 = cell_step(feed, CellState(h=state[i][1]), self.cells[i][1])
                top = st2.h
                mem.append(st2.h)
            outs.append(top)
            new_state.append(mem)

        if topo.kind == "gated":
            merged = [elementwise_mul(g, s) for g, s in zip(outs[0::2], outs[1::2])]
        else:
            merged = outs
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
