"""Task heads: max-pool-over-time classification and a linear-chain CRF.

The classification head pools layer outputs across time with elementwise
max (ties resolve to the earliest step) and applies a linear projection
with softmax cross-entropy.  The tagging head scores tag sequences with
per-step emissions plus a transition matrix over K real tags and two
virtual states (start, stop); the partition function runs on the tape so
the negative log-likelihood is differentiable end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add, log_sum_exp, matmul, maximum, reshape, sub

__all__ = [
    "SoftmaxHeadParams", "CrfParams", "new_softmax_head", "new_crf_head",
    "max_pool_over_time", "softmax_cross_entropy",
    "crf_neg_log_likelihood", "crf_viterbi_decode",
]


@dataclass
class SoftmaxHeadParams:
    w: Tensor   # (classes, feature_dim)
    b: Tensor   # (classes,)

    @property
    def classes(self) -> int:
        return self.b.shape[0]

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
        return add(matmul(self.proj_w, features), self.proj_b)

    def named(self, prefix: str = "crf") -> dict[str, Tensor]:
        return {f"{prefix}.proj_w": self.proj_w, f"{prefix}.proj_b": self.proj_b,
                f"{prefix}.transitions": self.transitions}


def new_softmax_head(feature_dim: int, classes: int, rng: np.random.Generator) -> SoftmaxHeadParams:
    if classes < 2:
        raise ValueError(f"softmax head needs at least 2 classes, got {classes}")
    lim = np.sqrt(6.0 / (feature_dim + classes))
    return SoftmaxHeadParams(
        w=Tensor(rng.uniform(-lim, lim, size=(classes, feature_dim))),
        b=Tensor(np.zeros(classes)),
    )


def new_crf_head(feature_dim: int, tags: int, rng: np.random.Generator) -> CrfParams:
    if tags < 1:
        raise ValueError(f"crf head needs at least 1 tag, got {tags}")
    lim = np.sqrt(6.0 / (feature_dim + tags))
    return CrfParams(
        proj_w=Tensor(rng.uniform(-lim, lim, size=(tags, feature_dim))),
        proj_b=Tensor(np.zeros(tags)),
        transitions=Tensor(rng.uniform(-0.1, 0.1, size=(tags + 2, tags + 2))),
    )


def max_pool_over_time(outputs: list[Tensor]) -> Tensor:
    """Elementwise max across the sequence; gradient goes to the earliest
    step on exact ties."""
    if not outputs:
        raise ValueError("cannot pool an empty sequence")
    acc = outputs[0]
    for t in outputs[1:]:
        acc = maximum(acc, t)
    return acc


def softmax_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label], shift-stable."""
    k = logits.data.shape[0]
    if not 0 <= label < k:
        raise ValueError(f"label {label} out of range for {k} classes")
    return sub(log_sum_exp(logits), logits[label])


def _check_tags(tags, k):
    if len(tags) == 0:
        raise ValueError("empty tag sequence")
    for t in tags:
        if not 0 <= t < k:
            raise ValueError(f"tag {t} out of range for {k} tags")


def crf_neg_log_likelihood(emissions: Tensor, tags: list[int], params: CrfParams) -> Tensor:
    """NLL of a tag sequence: log-partition minus the path score.

    emissions is (T, K).  Path score and partition accumulate with the same
    association order, so with a single tag the loss is exactly zero.
    """
    T, k = emissions.data.shape
    if k != params.tags:
        raise ValueError(f"emissions have {k} tags, head expects {params.tags}")
    if T != len(tags):
        raise ValueError(f"{T} emission steps but {len(tags)} tags")
    _check_tags(tags, k)
    trans = params.transitions
    start, stop = params.start, params.stop

    steps, ones = trans[0:k, 0:k], Tensor(np.ones((1, k)))
    score = add(trans[start, tags[0]], emissions[0, tags[0]])
    alpha = add(trans[start, 0:k], emissions[0])
    for t in range(1, T):
        score = add(add(score, trans[tags[t - 1], tags[t]]), emissions[t, tags[t]])
        # cand[i, j] = alpha[i] + trans[i, j]; the product with ones copies alpha exactly
        cand = add(matmul(reshape(alpha, (k, 1)), ones), steps)
        alpha = add(log_sum_exp(cand), emissions[t])
    score = add(score, trans[tags[-1], stop])
    log_z = log_sum_exp(add(alpha, trans[0:k, stop]))
    return sub(log_z, score)


def crf_viterbi_decode(emissions, params: CrfParams) -> tuple[list[int], float]:
    """Best-scoring tag sequence and its score; ties pick the lowest tag index.

    Pure numpy, no tape involvement.
    """
    em = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions, dtype=np.float64)
    if em.ndim != 2:
        raise ValueError(f"emissions must be (T, K), got shape {em.shape}")
    T, k = em.shape
    if T == 0:
        raise ValueError("cannot decode an empty sequence")
    if k != params.tags:
        raise ValueError(f"emissions have {k} tags, head expects {params.tags}")
    tr = params.transitions.data
    start, stop = params.start, params.stop

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
