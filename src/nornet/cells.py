"""Single recurrent cells: relu and sigmoid simple cells, GRU, LSTM.

Parameters live in a CellParams record holding one input matrix, one
recurrent matrix and one bias vector per gate; the simple cells have a single
unnamed gate.  Every kind runs over a whole (d, T) sequence as one tape op,
`scan`, whose backward is backpropagation through time; a cell's step is the
scan at T = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .tensor import ShapeError, Tensor, _emit, _gemvs, _ranked_sum, _sigmoid, col, stack
from .tensor import matmul  # noqa: F401  perfbench's tracer test reads cells.matmul

__all__ = [
    "GATE_NAMES", "CellParams", "CellState", "new_cell_params", "zero_state",
    "cell_step", "scan", "identity_recurrence_init", "glorot_init",
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
    return CellState(Tensor(np.zeros(hidden)), Tensor(np.zeros(hidden)) if kind == "lstm" else None)


def _plain(relu, wx, U, b, h0, H):
    """h' = act((W x + U h) + b) for a relu or a sigmoid cell."""
    (wx,), (U,), (b,) = wx, U, b
    for t, x in enumerate(wx):
        pre = (x + U @ H[t]) + b
        H[t + 1] = np.where(pre > 0, pre, 0.0) if relu else _sigmoid(pre)
    out = H[1:]

    def back(g, gc):
        G, carry = np.empty_like(out), 0.0
        for t in range(len(out) - 1, -1, -1):
            gh, o = g[:, t] + carry, out[t]
            G[t] = gh * (o > 0) if relu else gh * o * (1.0 - o)
            carry = U.T @ G[t] if t or h0 else None
        return [G], [H[:-1]], (carry,)

    return out, None, back


def _gru(wx, U, b, h0, H):
    """z, r = σ((W x + U h) + b), n = tanh((W_c x + U_c (r∗h)) + b_c), h' = (1 − z)∗h + z∗n."""
    (wz, wr, wc), (Uz, Ur, Uc), (bz, br, bc) = wx, U, b
    Z, R, RH, N = np.empty((4,) + wz.shape)
    for t, h in enumerate(H[:-1]):
        Z[t] = _sigmoid((wz[t] + Uz @ h) + bz)
        R[t] = _sigmoid((wr[t] + Ur @ h) + br)
        RH[t] = R[t] * h
        N[t] = np.tanh((wc[t] + Uc @ RH[t]) + bc)
        H[t + 1] = (1.0 - Z[t]) * h + Z[t] * N[t]

    def back(g, gc):
        G, carry = np.empty((3,) + wz.shape), 0.0   # z, r, c by step
        for t in range(len(wz) - 1, -1, -1):
            gh, h, z, r, n = g[:, t] + carry, H[t], Z[t], R[t], N[t]
            G[2, t] = gh * z * (1.0 - n * n)
            grh = Uc.T @ G[2, t]
            G[0, t] = gh * (n - h) * z * (1.0 - z)
            G[1, t] = grh * h * r * (1.0 - r)
            carry = gh * (1.0 - z) + grh * r + Uz.T @ G[0, t] + Ur.T @ G[1, t] if t or h0 else None
        return list(G), [H[:-1], H[:-1], RH], (carry,)

    return H[1:], None, back


def _lstm(wx, U, b, h0, H, C):
    """i, f, o = σ((W x + U h) + b), g likewise with tanh, c' = c∗f + g∗i, h' = tanh(c')∗o."""
    A, TC = np.empty((4,) + wx[0].shape), np.empty_like(wx[0])   # A: i, f, o, g by step
    for t in range(len(TC)):
        pre = [(w[t] + u @ H[t]) + bias for w, u, bias in zip(wx, U, b)]
        A[:, t] = (*map(_sigmoid, pre[:3]), np.tanh(pre[3]))
        i, f, o, g = A[:, t]
        C[t + 1] = C[t] * f + g * i
        TC[t] = np.tanh(C[t + 1])
        H[t + 1] = TC[t] * o

    def back(g, gc):
        G, ch, cc = np.empty_like(A), 0.0, gc
        for t in range(len(TC) - 1, -1, -1):
            (i, f, o, gg), tc, gh = A[:, t], TC[t], g[:, t] + ch
            dc = cc + gh * o * (1.0 - tc * tc)
            G[:, t] = (dc * gg * i * (1.0 - i), dc * C[t] * f * (1.0 - f),
                       gh * tc * o * (1.0 - o), dc * i * (1.0 - gg * gg))
            if t or h0:
                ch, cc = sum(u.T @ G[k, t] for k, u in enumerate(U)), dc * f
        return list(G), [H[:-1]] * 4, (ch, cc)

    return H[1:], C[-1], back


_RECURRENCES = {"simple": partial(_plain, True), "gate": partial(_plain, False),
                "gru": _gru, "lstm": _lstm}


def scan(parts: list, state: CellState | None, p: CellParams) -> tuple:
    """A cell over (d_j, T) input parts from state (None: zeros the tape does
    not record) as one tape op: the (hidden, T) outputs, and a function that
    records the final state (an lstm's c is a second op).  An ndarray part is
    a constant: no leaf, no Wᵀ G.  Each gate's W x_t is a BLAS gemv per part
    on its column block of W for all t at once (tensor._gemvs), added in rank
    order (tensor._ranked_sum); U h is a gemv per gate and step.  A step is
    the scan at T = 1.  Backward is per-kind backpropagation through time:
    each gate's W and U get factor pairs (G, Xᵀ) and (G, H_prevᵀ) (gru's U_c:
    (r∗H_prev)ᵀ), each taped part its blocks' Wᵀ G added in gate order."""
    ws, us, bs = list(p.w.values()), list(p.u.values()), list(p.b.values())
    taped = [j for j, x in enumerate(parts) if isinstance(x, Tensor)]
    Xs, h0 = [x.data if isinstance(x, Tensor) else x for x in parts], state is not None
    inits = (state.h, state.c)[:1 + (p.kind == "lstm")] if h0 else ()
    edges = list(accumulate((X.shape[0] for X in Xs), initial=0))
    if (any(X.ndim != 2 or X.shape[1] != Xs[0].shape[1] for X in Xs) or edges[-1] != p.input_dim
            or any(s is None or s.shape != bs[0].shape for s in inits)):
        raise ShapeError(f"scan of a {p.kind} cell {ws[0].shape} takes (d, T) input parts and "
                         f"its state, got {[X.shape for X in Xs]} and {state}")
    blocks = [[w.data[:, i:j] for i, j in zip(edges, edges[1:])] for w in ws]
    wx = [_ranked_sum([_gemvs(blk, X) for blk, X in zip(bl, Xs)]) for bl in blocks]
    S = np.zeros((1 + (p.kind == "lstm"), len(wx[0]) + 1, p.hidden))   # H (and lstm C), row 0 initial
    for row, s in zip(S, inits):
        row[0] = s.data
    out, c_last, back = _RECURRENCES[p.kind](wx, [u.data for u in us], [b.data for b in bs], h0, *S)

    def bwd(g, gc):
        Gs, Hins, carries = back(g, gc)
        X = np.concatenate(Xs).T
        grads = (*((G.T, X) for G in Gs), *((G.T, Hin) for G, Hin in zip(Gs, Hins)),
                 *(G.sum(axis=0) for G in Gs),
                 *(sum(bl[j].T @ G.T for bl, G in zip(blocks, Gs)) for j in taped))
        return grads + carries if h0 else grads

    inputs = (*ws, *us, *bs, *(parts[j] for j in taped), *inits)
    seq = _emit("scan", out.T, inputs, lambda g: bwd(g, 0.0))
    return seq, lambda: CellState(col(seq, len(out) - 1), c_last if c_last is None else _emit(
        "scan_c", c_last, inputs, lambda g: bwd(np.zeros(out.T.shape), g)))


def cell_step(x: Tensor, state: CellState, p: CellParams) -> CellState:
    """One token from state: the scan at T = 1."""
    return scan([stack([x])], state, p)[1]()
