"""Task heads: max-pool-over-time classification and a linear-chain CRF.

Both heads read a (features, T) matrix, a column per step (a list of steps
is stacked into one first).  The classifier max-pools it over time (ties go
to the earliest step) into a softmax cross-entropy, one tape op each.  The
tagger projects it to (K, T) emissions in one op and scores tag sequences
with them and transitions over K real tags and two virtual states (start,
stop).  The negative log-likelihood is one tape op: the forward algorithm
in numpy, and reverse mode through it, whose gradient is the expected minus
the observed counts.  No backward closure holds a Tensor (and its tape).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, _emit, _lse, _mm2, add, matmul, stack

__all__ = [
    "SoftmaxHeadParams", "CrfParams", "new_softmax_head", "new_crf_head",
    "max_pool_over_time", "softmax_cross_entropy",
    "crf_neg_log_likelihood", "crf_viterbi_decode",
]


@dataclass
class SoftmaxHeadParams:
    w: Tensor   # (classes, feature_dim)
    b: Tensor   # (classes,)

    def logits(self, features: Tensor) -> Tensor:
        return add(matmul(self.w, features), self.b)

    def named(self, prefix: str = "head") -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


@dataclass
class CrfParams:
    """Emission projection plus transition table.

    transitions is (K+2, K+2); row/column K is the virtual start state and
    K+1 the virtual stop state.  Start has no incoming transitions and stop
    no outgoing ones; those entries exist but are never read.
    """

    proj_w: Tensor       # (K, feature_dim)
    proj_b: Tensor       # (K,)
    transitions: Tensor  # (K+2, K+2)

    @property
    def tags(self) -> int:
        return self.proj_b.shape[0]

    @property
    def start(self) -> int:
        return self.tags

    @property
    def stop(self) -> int:
        return self.tags + 1

    def emission(self, features: Tensor) -> Tensor:
        """proj_w F + proj_b over an (F, T) matrix or a vector as one op: one
        ordered product (_mm2), each column its one-column product bit for bit."""
        W, B, F = self.proj_w.data, self.proj_b.data, features.data
        if F.ndim not in (1, 2) or W.shape[1] != F.shape[0]:
            raise ShapeError(f"emission: weight {W.shape}, features {F.shape}")
        F2 = F.reshape(len(F), -1)

        def bwd(g):
            G = g.reshape(len(B), -1)
            return (G, F2.T), G.sum(axis=1), (W.T @ G).reshape(F.shape)

        out = (_mm2(W, F2) + B[:, None]).reshape(B.shape + F.shape[1:])
        return _emit("emission", out, (self.proj_w, self.proj_b, features), bwd)

    def named(self, prefix: str = "crf") -> dict[str, Tensor]:
        return {f"{prefix}.proj_w": self.proj_w, f"{prefix}.proj_b": self.proj_b,
                f"{prefix}.transitions": self.transitions}


def new_softmax_head(feature_dim: int, classes: int, rng: np.random.Generator) -> SoftmaxHeadParams:
    if classes < 2:
        raise ValueError(f"softmax head needs at least 2 classes, got {classes}")
    lim = np.sqrt(6.0 / (feature_dim + classes))
    return SoftmaxHeadParams(w=Tensor(rng.uniform(-lim, lim, size=(classes, feature_dim))),
                             b=Tensor(np.zeros(classes)))


def new_crf_head(feature_dim: int, tags: int, rng: np.random.Generator) -> CrfParams:
    if tags < 1:
        raise ValueError(f"crf head needs at least 1 tag, got {tags}")
    lim = np.sqrt(6.0 / (feature_dim + tags))
    return CrfParams(proj_w=Tensor(rng.uniform(-lim, lim, size=(tags, feature_dim))),
                     proj_b=Tensor(np.zeros(tags)),
                     transitions=Tensor(rng.uniform(-0.1, 0.1, size=(tags + 2, tags + 2))))


def _matrix(steps, rows: int | None = None) -> Tensor:
    """A (rows, T) matrix, T >= 1, or a list of step vectors stacked into one."""
    m = stack(steps) if isinstance(steps, list) else steps
    if len(m.shape) != 2 or m.shape[1] < 1 or rows not in (None, m.shape[0]):
        raise ShapeError(f"expected a ({rows or 'n'}, T) matrix or its columns, got {m.shape}")
    return m


def max_pool_over_time(outputs) -> Tensor:
    """Elementwise max over time of an (h, T) matrix, or a list of steps, as
    one op.  Each entry's gradient goes to its winning step: the earliest on
    ties, and the first NaN over any number."""
    outputs = _matrix(outputs)
    M = outputs.data
    rows, win = np.arange(M.shape[0]), M.argmax(axis=1)

    def bwd(g):
        to_steps = np.zeros(M.shape)
        to_steps[rows, win] = g
        return (to_steps,)

    return _emit("max_pool", M[rows, win], (outputs,), bwd)


def softmax_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label], shift-stable, as one op."""
    z = logits.data
    if z.ndim != 1:
        raise ShapeError(f"logits must be a vector, got shape {z.shape}")
    if not 0 <= label < z.shape[0]:
        raise ValueError(f"label {label} out of range for {z.shape[0]} classes")
    lse, soft = _lse(z)

    def bwd(g):
        gz = g * soft
        gz[label] -= g
        return (gz,)

    return _emit("softmax_ce", np.asarray(lse - z[label]), (logits,), bwd)


def crf_neg_log_likelihood(emissions, tags: list[int], params: CrfParams) -> Tensor:
    """NLL of a tag sequence, log-partition minus the path score, as one op
    over the (K, T) emissions (or their K-vector steps) and the transitions.

    Path score and partition accumulate with the same association order, so
    with a single tag the loss is exactly zero.  The gradient runs reverse
    mode through the forward algorithm: the expected counts less the
    observed ones.
    """
    emissions = _matrix(emissions, params.tags)
    em = emissions.data.T
    T, k = em.shape
    if T != len(tags):
        raise ValueError(f"{T} emission steps but {len(tags)} tags")
    for t in tags:
        if not 0 <= t < k:
            raise ValueError(f"tag {t} out of range for {k} tags")
    trans = params.transitions
    tr, start, stop = trans.data, params.start, params.stop

    score = tr[start, tags[0]] + em[0, tags[0]]
    alpha = tr[start, :k] + em[0]
    soft = []                                    # each step's d alpha / d cand
    for t in range(1, T):
        score = score + tr[tags[t - 1], tags[t]] + em[t, tags[t]]
        # cand[i, j] = alpha[i] + tr[i, j], the paths into j by way of i
        lse, p = _lse(alpha[:, None] + tr[:k, :k])
        soft.append(p)
        alpha = lse + em[t]
    score = score + tr[tags[-1], stop]
    log_z, p_last = _lse(alpha + tr[:k, stop])

    def bwd(g):
        g = float(g)
        g_em, g_tr = np.empty((T, k)), np.zeros_like(tr)
        g_alpha = g * p_last
        g_tr[:k, stop] = g_alpha
        for t in range(T - 1, 0, -1):
            g_em[t] = g_alpha
            g_cand = soft[t - 1] * g_alpha
            g_tr[:k, :k] += g_cand
            g_alpha = g_cand.sum(axis=1)
        g_em[0] = g_alpha
        g_tr[start, :k] += g_alpha
        g_em[np.arange(T), tags] -= g
        for i, j in zip([start, *tags], [*tags, stop]):
            g_tr[i, j] -= g
        return g_em.T, g_tr

    return _emit("crf_nll", np.asarray(log_z - score), (emissions, trans), bwd)


def crf_viterbi_decode(emissions, params: CrfParams) -> tuple[list[int], float]:
    """Best-scoring tag sequence and its score over the (K, T) emissions (or a
    list of K-vector steps); ties pick the lowest tag index.

    Pure numpy, no tape involvement.
    """
    em = _matrix(emissions, params.tags).data.T
    T, k = em.shape
    tr, start, stop = params.transitions.data, params.start, params.stop

    delta = tr[start, :k] + em[0]
    back = np.zeros((T, k), dtype=np.int64)
    for t in range(1, T):
        cand = delta[:, None] + tr[:k, :k]           # cand[i, j]: best-so-far i -> j
        back[t] = cand.argmax(axis=0)                # argmax takes the lowest index on ties
        delta = cand[back[t], np.arange(k)] + em[t]
    final = delta + tr[:k, stop]
    last = int(final.argmax())
    score = float(final[last])
    path = [last]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path, score
