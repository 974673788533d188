"""Single recurrent cells: relu and sigmoid simple cells, GRU, LSTM.

Every cell is a pure step function over (input, state, params).  Parameters
live in a CellParams record holding one input matrix, one recurrent matrix
and one bias vector per gate; the simple cells have a single unnamed gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add, elementwise_mul, matmul, relu, sigmoid, sub, tanh

__all__ = [
    "GATE_NAMES", "CellParams", "CellState", "new_cell_params", "zero_state",
    "cell_step", "simple_rnn_step", "gate_rnn_step", "gru_step", "lstm_step",
    "identity_recurrence_init", "glorot_init",
]

# gate vocabularies per cell kind; "simple" is the relu cell, "gate" the
# sigmoid cell used as the multiplicative half of gated compositions
GATE_NAMES = {
    "simple": ("h",),
    "gate": ("h",),
    "gru": ("z", "r", "c"),
    "lstm": ("i", "f", "o", "g"),
}


@dataclass
class CellParams:
    kind: str
    w: dict[str, Tensor]   # gate -> (hidden, input_dim)
    u: dict[str, Tensor]   # gate -> (hidden, hidden)
    b: dict[str, Tensor]   # gate -> (hidden,)

    def __post_init__(self):
        if self.kind not in GATE_NAMES:
            raise ValueError(f"unknown cell kind: {self.kind!r}")
        names = GATE_NAMES[self.kind]
        for table in (self.w, self.u, self.b):
            if tuple(table) != names:
                raise ValueError(f"{self.kind} cell expects gates {names}, got {tuple(table)}")

    @property
    def hidden(self) -> int:
        return self.b[GATE_NAMES[self.kind][0]].shape[0]

    @property
    def input_dim(self) -> int:
        return self.w[GATE_NAMES[self.kind][0]].shape[1]

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for g in GATE_NAMES[self.kind]:
            out[f"{prefix}.w_{g}"] = self.w[g]
            out[f"{prefix}.u_{g}"] = self.u[g]
            out[f"{prefix}.b_{g}"] = self.b[g]
        return out


@dataclass
class CellState:
    h: Tensor
    c: Tensor | None = None   # lstm cell memory; None elsewhere


def new_cell_params(kind: str, input_dim: int, hidden: int, rng: np.random.Generator) -> CellParams:
    """Allocate parameters for a cell and initialize them: identity
    recurrence for the relu cell, glorot for every other kind."""
    if hidden < 1 or input_dim < 1:
        raise ValueError(f"cell dims must be positive, got input {input_dim}, hidden {hidden}")
    names = GATE_NAMES.get(kind)
    if names is None:
        raise ValueError(f"unknown cell kind: {kind!r}")
    w = {g: Tensor(np.zeros((hidden, input_dim))) for g in names}
    u = {g: Tensor(np.zeros((hidden, hidden))) for g in names}
    b = {g: Tensor(np.zeros(hidden)) for g in names}
    params = CellParams(kind, w, u, b)
    if kind == "simple":
        identity_recurrence_init(params, rng)
    else:
        glorot_init(params, rng)
    return params


def identity_recurrence_init(params: CellParams, rng: np.random.Generator) -> None:
    """Identity recurrent matrix, zero bias, tiny gaussian input weights.

    Only defined for the relu simple cell; the scheme relies on relu being
    the identity on the nonnegative orthant and has no analogue for gated
    kinds, so those are rejected.
    """
    if params.kind != "simple":
        raise ValueError(f"identity recurrence init requires a simple relu cell, got {params.kind!r}")
    h = params.hidden
    params.u["h"].data[...] = np.eye(h)
    params.b["h"].data[...] = 0.0
    params.w["h"].data[...] = rng.normal(0.0, 0.001, size=params.w["h"].shape)


def glorot_init(params: CellParams, rng: np.random.Generator) -> None:
    """Uniform glorot on every weight matrix, zero biases."""
    for g in GATE_NAMES[params.kind]:
        for t in (params.w[g], params.u[g]):
            fan_out, fan_in = t.shape
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            t.data[...] = rng.uniform(-lim, lim, size=t.shape)
        params.b[g].data[...] = 0.0


def zero_state(kind: str, hidden: int) -> CellState:
    h = Tensor(np.zeros(hidden))
    if kind == "lstm":
        return CellState(h=h, c=Tensor(np.zeros(hidden)))
    return CellState(h=h)


def _affine(p: CellParams, gate: str, x: Tensor, h: Tensor) -> Tensor:
    return add(add(matmul(p.w[gate], x), matmul(p.u[gate], h)), p.b[gate])


def simple_rnn_step(x: Tensor, state: CellState, p: CellParams) -> CellState:
    """h' = relu(W x + U h + b)."""
    return CellState(h=relu(_affine(p, "h", x, state.h)))


def gate_rnn_step(x: Tensor, state: CellState, p: CellParams) -> CellState:
    """h' = sigmoid(W x + U h + b)."""
    return CellState(h=sigmoid(_affine(p, "h", x, state.h)))


def gru_step(x: Tensor, state: CellState, p: CellParams) -> CellState:
    """Update/reset-gated cell: h' = (1 - z) * h + z * cand."""
    h = state.h
    z = sigmoid(_affine(p, "z", x, h))
    r = sigmoid(_affine(p, "r", x, h))
    cand = tanh(add(add(matmul(p.w["c"], x), matmul(p.u["c"], elementwise_mul(r, h))), p.b["c"]))
    one = Tensor(np.ones_like(z.data))
    h_new = add(elementwise_mul(sub(one, z), h), elementwise_mul(z, cand))
    return CellState(h=h_new)


def lstm_step(x: Tensor, state: CellState, p: CellParams) -> CellState:
    """Standard lstm with independent forget-gate weights.

    c' = c * f + g * i, h' = tanh(c') * o.
    """
    if state.c is None:
        raise ValueError("lstm step needs a state with cell memory")
    h = state.h
    i = sigmoid(_affine(p, "i", x, h))
    f = sigmoid(_affine(p, "f", x, h))
    o = sigmoid(_affine(p, "o", x, h))
    g = tanh(_affine(p, "g", x, h))
    c_new = add(elementwise_mul(state.c, f), elementwise_mul(g, i))
    h_new = elementwise_mul(tanh(c_new), o)
    return CellState(h=h_new, c=c_new)


_STEPS = {
    "simple": simple_rnn_step,
    "gate": gate_rnn_step,
    "gru": gru_step,
    "lstm": lstm_step,
}


def cell_step(x: Tensor, state: CellState, p: CellParams) -> CellState:
    return _STEPS[p.kind](x, state, p)
