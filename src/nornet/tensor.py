"""Reverse-mode automatic differentiation over float64 numpy arrays.

The graph is rebuilt on every forward pass: opening a Tape makes it the
active recorder, every op executed while it is open appends one node, and
backward() walks the node list in reverse.  Tensors created outside a tape
(parameters, constants) are registered lazily the first time an op touches
them.  The registration lives in the tape, so the same parameter tensors
can be reused across many tapes, including tapes on other threads.
relu, sigmoid, tanh and sub serve only as the tests' reference ops.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "grad_check", "GradCheckReport",
    "add", "sub", "scale", "elementwise_mul", "matmul",
    "relu", "sigmoid", "tanh", "concat", "stack", "col", "reduce_sum",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


_state = threading.local()


def _active() -> "Tape | None":
    return getattr(_state, "tape", None)


class Tensor:
    """A float64 array plus the tape and node that produced it, if any."""

    __slots__ = ("data", "node_id", "_tape")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.node_id = None
        self._tape = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node_id={self.node_id})"


@dataclass
class _Node:
    kind: str
    inputs: tuple
    # maps the output gradient to one gradient per input; None for leaves
    backward: Callable | None
    shape: tuple


class Tape:
    """Append-only record of one forward pass.

    Nodes are stored in execution order, so every node's inputs appear
    earlier in the list; backward() relies on that.  Only one tape may be
    active per thread at a time.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.gradients: dict[int, np.ndarray] = {}
        # id -> (tensor, node) for outside tensors; holding one pins its id
        self._leaves: dict[int, tuple[Tensor, int]] = {}

    def __enter__(self) -> "Tape":
        if _active() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        return False

    def _leaf_id(self, t: Tensor) -> int:
        if t._tape is self:
            return t.node_id
        entry = self._leaves.get(id(t))
        if entry is None:
            entry = self._leaves[id(t)] = (t, len(self.nodes))
            self.nodes.append(_Node("leaf", (), None, t.data.shape))
        return entry[1]

    def _record(self, kind: str, out: np.ndarray, inputs: tuple, bwd: Callable) -> Tensor:
        ids = tuple(self._leaf_id(t) for t in inputs)
        res = Tensor(out)
        res.node_id = len(self.nodes)
        res._tape = self
        self.nodes.append(_Node(kind, ids, bwd, out.shape))
        return res

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradients of loss for the leaves it reaches; an op's partial is
        dropped once passed on to its inputs.  An op may hand an input a
        factor pair (L, R) for the gradient L @ R.  A node's pairs are added
        into its partial as one product, hstack(Ls) @ vstack(Rs), when the
        sweep reaches the node or once their summed rank reaches min(m, k) of
        its (m, k) shape, which keeps the held factors within twice its size."""
        if loss._tape is not self:
            raise ValueError("loss tensor was not produced on this tape")
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar-shaped, got {loss.data.shape}")
        partial: list[np.ndarray | None] = [None] * len(self.nodes)
        partial[loss.node_id] = np.ones_like(loss.data)
        held: dict[int, list] = {}   # node -> [summed rank, factor pairs]
        def flush(nid):
            pairs = held.pop(nid, (0, ()))[1]
            if pairs:
                prod = np.hstack([l for l, _ in pairs]) @ np.vstack([r for _, r in pairs])
                if partial[nid] is not None:
                    prod += partial[nid]
                partial[nid] = prod

        for nid in range(loss.node_id, -1, -1):
            flush(nid)
            g = partial[nid]
            node = self.nodes[nid]
            if g is None or node.backward is None:
                continue
            partial[nid] = None
            for iid, gi in zip(node.inputs, node.backward(g)):
                if gi is None:
                    continue
                if isinstance(gi, tuple):
                    entry = held.setdefault(iid, [0, []])
                    entry[0] += gi[0].shape[1]
                    entry[1].append(gi)
                    if entry[0] >= min(self.nodes[iid].shape):
                        flush(iid)
                    continue
                if partial[iid] is None:
                    partial[iid] = np.zeros(self.nodes[iid].shape)
                partial[iid] += gi
        self.gradients = {i: g for i, g in enumerate(partial) if g is not None}
        return self.gradients

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient for a leaf t, zeros if t never influenced the loss."""
        if t._tape is self:
            raise ValueError("an op result keeps no gradient; ask for a leaf's")
        g = self.gradients.get(self._leaves.get(id(t), (None, None))[1])
        return np.zeros_like(t.data) if g is None else g


def _emit(kind, out, inputs, bwd) -> Tensor:
    tape = _active()
    if tape is None:
        return Tensor(out)
    return tape._record(kind, out, inputs, bwd)


# --- reductions ------------------------------------------------------------
#
# Activations are vectors, or matrices with one column per step.  A scan's
# cell products and the combiner's block products run on BLAS as one
# np.matmul over a leading column axis (_gemvs), whose slices equal the lone
# gemvs a @ b[:, j] bit for bit; a 2-D gemm's columns would not.  So a
# column's bits do not depend on the other columns, and a step, the scan at
# T = 1, makes the same calls.  Block products are added in rank order, entry
# by entry (_ranked_sum): moving a block moves no bit, nor does a zero block.
# These bits depend on the numpy and BLAS build and the thread count.
# matmul (the softmax logits) and the CRF emissions add each entry's terms
# strictly left to right (_mm2), whatever the other columns, which rests on
# numpy reducing a leading axis one row at a time, as checked on numpy 2.4.6.
# No bitwise claim rests on gradients, so backward products use BLAS (numpy
# @), and the gradient toward the matrix (a weight) goes to the tape as a
# factor pair, multiplied out in bulk by Tape.backward.  _lse (the heads'
# log-partitions) and reduce_sum are plain numpy sums.


def _gemvs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, k) @ (k, n) as n BLAS gemvs in one np.matmul: the (n, m) result,
    row j equal to the lone a @ b[:, j] bit for bit."""
    return np.matmul(a, b.T[:, :, None])[:, :, 0]


def _mm2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, k) @ (k, n), each entry summed over k strictly left to right.

    The product is laid out k first (order="C": after a.T, k would be the
    contiguous axis, which numpy sums pairwise) and reduced from -0.0, which
    keeps a sum of negative zeros negative.  With m·n == 1 numpy sums
    pairwise anyway, so a dot product keeps the running sum of np.cumsum."""
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]))
    if a.shape[0] * b.shape[1] == 1:
        return np.cumsum(a * b.T, axis=1)[:, -1:]
    prod = np.multiply(a.T[:, :, None], b[:, None, :], order="C")
    return np.add.reduce(prod, axis=0, initial=-0.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix @ vector: ordered forward (_mm2), BLAS gradients; the matrix
    gets the factor pair (g, bᵀ)."""
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 1 or A.shape[1] != B.shape[0]:
        raise ShapeError(f"matmul expects an (m, k) matrix and a (k,) vector, "
                         f"got {A.shape} and {B.shape}")
    B2 = B[:, None]

    def bwd(g):
        g2 = np.asarray(g).reshape(A.shape[0], 1)
        return (g2, B2.T), (A.T @ g2).reshape(B.shape)

    return _emit("matmul", _mm2(A, B2)[:, 0], (a, b), bwd)


def _ranked_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays, of one shape, ranked entry by entry by an odd-even
    transposition network and added one at a time, so the sum's bits do not
    depend on their order.  np.minimum and np.maximum return their second
    operand on a tie, so min(a, b), max(b, a) keeps one -0.0 and one 0.0."""
    a = list(arrays)
    for r in range(len(a)):
        for i in range(r % 2, len(a) - 1, 2):
            a[i], a[i + 1] = np.minimum(a[i], a[i + 1]), np.maximum(a[i + 1], a[i])
    return sum(a[1:], a[0])


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op} operands differ in shape: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _emit("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _emit("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit("scale", a.data * c, (a,), lambda g: (g * c,))


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "elementwise_mul")
    ad, bd = a.data, b.data
    return _emit("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def relu(a: Tensor) -> Tensor:
    # subgradient at exactly 0 is defined as 0
    mask = a.data > 0
    return _emit("relu", np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _emit("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _emit("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Vectors joined end to end; the gradient splits back at the seams."""
    datas = [p.data for p in parts]
    if not datas or any(d.ndim != 1 for d in datas):
        raise ShapeError(f"concat expects vectors, got {[d.shape for d in datas]}")
    edges = np.cumsum([d.size for d in datas])[:-1]
    return _emit("concat", np.concatenate(datas), tuple(parts), lambda g: tuple(np.split(g, edges)))


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Vectors of one length as the columns of a matrix, one per step."""
    datas = [p.data for p in parts]
    if not datas or any(d.ndim != 1 or d.shape != datas[0].shape for d in datas):
        raise ShapeError(f"stack expects vectors of one length, got {[d.shape for d in datas]}")
    return _emit("stack", np.stack(datas, axis=1), tuple(parts), lambda g: tuple(g.T))


def col(a: Tensor, t: int) -> Tensor:
    """Column t of a matrix, as a vector."""
    shape = a.data.shape   # not a: a backward that holds a tensor holds its tape

    def bwd(g):
        out = np.zeros(shape)
        out[:, t] = g
        return (out,)

    return _emit("col", a.data[:, t], (a,), bwd)


def _lse(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift-stable log(sum(exp(v))) down the first axis, and its gradient
    toward v, the softmax down that axis."""
    m = v.max(axis=0)
    e = np.exp(v - m)
    s = e.sum(axis=0)
    return m + np.log(s), e / s


def reduce_sum(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    in_shape = a.data.shape
    return _emit("sum", out, (a,), lambda g: (np.broadcast_to(np.asarray(g), in_shape).copy(),))


# --- finite-difference verification ---------------------------------------


@dataclass
class GradCheckReport:
    """Per-parameter worst relative error between tape and finite differences."""

    errors: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def lines(self) -> list[str]:
        width = max((len(n) for n in self.errors), default=4)
        rows = []
        for name, err in sorted(self.errors.items()):
            mark = "ok" if err < self.tolerance else "FAIL"
            rows.append(f"{name:<{width}}  {err:12.3e}  {mark}")
        return rows


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               step: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of loss f() against central finite differences.

    f must be deterministic and is re-evaluated many times with individual
    parameter entries perturbed by ±step.  The caller is responsible for
    sampling a point away from relu/max kinks; at a kink the two estimates
    legitimately disagree.
    """
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = {name: tape.grad(p).copy() for name, p in params.items()}

    errors: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = float(f().data)
            flat[i] = keep - step
            dn = float(f().data)
            flat[i] = keep
            num[i] = (up - dn) / (2.0 * step)
        ana = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-8)
        rel = np.abs(ana - num) / denom
        errors[name] = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(errors=errors, tolerance=tolerance)
