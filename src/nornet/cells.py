"""Single recurrent cells: relu and sigmoid simple cells, GRU, LSTM.

Every cell is a pure step function over (input, state, params).  Parameters
live in a CellParams record holding one input matrix, one recurrent matrix
and one bias vector per gate; the simple cells have a single unnamed gate.
A relu or sigmoid cell also runs over a whole (d, T) sequence as one tape op,
`scan`; its step is the scan at T = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (ShapeError, Tensor, _emit, _gemvs, _sigmoid, add, col,
                     elementwise_mul, matmul, sigmoid, stack, sub, tanh)

__all__ = [
    "GATE_NAMES", "CellParams", "CellState", "new_cell_params", "zero_state",
    "cell_step", "scan", "simple_rnn_step", "gate_rnn_step", "gru_step", "lstm_step",
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


def scan(parts: list[Tensor], state: CellState | None, p: CellParams) -> tuple[Tensor, CellState]:
    """A relu or sigmoid cell over (d_j, T) input parts from state (None: zeros
    the tape does not record), as one tape op: the (hidden, T) outputs and the
    final state.  Column t is act((W x_t + U h_{t-1}) + b) in BLAS gemvs: W x_t
    one per part on its column block of W, added in part order, for all t at
    once (tensor._gemvs), and U h_{t-1} one per step.  A step is the scan at
    T = 1, so it has the scan's bits.  Backward is backpropagation through time
    in numpy: W and U get factor pairs (G, Xᵀ) and (G, H_prevᵀ), each part its
    block's Wᵀ G."""
    W, U, b, Xs = p.w["h"].data, p.u["h"].data, p.b["h"].data, [x.data for x in parts]
    relu, h0 = p.kind == "simple", state is not None
    edges = np.cumsum([0] + [X.shape[0] for X in Xs])
    if (any(X.ndim != 2 or X.shape[1] != Xs[0].shape[1] for X in Xs) or edges[-1] != W.shape[1]
            or h0 and state.h.shape != b.shape):
        raise ShapeError(f"scan of a cell {W.shape} takes (d, T) input parts and an h state, "
                         f"got {[X.shape for X in Xs]} and {state and state.h.shape}")
    blocks = [W[:, i:j] for i, j in zip(edges, edges[1:])]
    prods = [_gemvs(blk, X) for blk, X in zip(blocks, Xs)]
    H = np.empty((Xs[0].shape[1] + 1, b.shape[0]))   # row 0 is the initial h
    H[0] = state.h.data if h0 else 0.0
    for t, wx in enumerate(sum(prods[1:], prods[0])):
        pre = (wx + U @ H[t]) + b
        H[t + 1] = np.where(pre > 0, pre, 0.0) if relu else _sigmoid(pre)
    out = H[1:]

    def bwd(g):
        G, carry = np.empty_like(out), 0.0
        for t in range(len(out) - 1, -1, -1):
            gh, o = g[:, t] + carry, out[t]
            G[t] = gh * (o > 0) if relu else gh * o * (1.0 - o)
            carry = U.T @ G[t] if t or h0 else None
        grads = ((G.T, np.concatenate(Xs).T), (G.T, H[:-1]), G.sum(axis=0),
                 *(blk.T @ G.T for blk in blocks))
        return grads + (carry,) if h0 else grads

    seq = _emit("scan", out.T, (p.w["h"], p.u["h"], p.b["h"], *parts) + ((state.h,) if h0 else ()), bwd)
    return seq, CellState(h=col(seq, len(out) - 1))


def simple_rnn_step(x: Tensor, state: CellState, p: CellParams) -> CellState:
    """h' = relu((W x + U h) + b), the scan at T = 1."""
    return scan([stack([x])], state, p)[1]


def gate_rnn_step(x: Tensor, state: CellState, p: CellParams) -> CellState:
    """h' = sigmoid((W x + U h) + b), the scan at T = 1."""
    return scan([stack([x])], state, p)[1]


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
