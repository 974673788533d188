"""Model assembly: embedding + recurrent stack + head, plus checkpoint io.

Models hold frozen embeddings as a plain read-only array; only layer and
head tensors appear in named_parameters(), which is what the optimizer
and the checkpoint format operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import ModelConfig, layer_topology
from .cells import CellState, cell_step, new_cell_params, zero_state
from .heads import (crf_neg_log_likelihood, crf_viterbi_decode,
                    max_pool_over_time, new_crf_head, new_softmax_head,
                    softmax_cross_entropy)
from .nor import NorLayer, bidirectional_wrap, unroll
from .tensor import Tensor, concat, reshape
from .training import apply_dropout
from . import data as data_io

__all__ = [
    "CellLayer", "SequenceClassifier", "SequenceTagger", "build_model",
    "save_checkpoint", "load_checkpoint", "Checkpoint",
]


class CellLayer:
    """A single recurrent cell presented with the layer interface."""

    def __init__(self, kind: str, input_dim: int, hidden: int, rng: np.random.Generator):
        self.kind = kind
        self.input_dim = input_dim
        self.out_dim = hidden
        self.params = new_cell_params(kind, input_dim, hidden, rng)

    def initial_state(self) -> CellState:
        return zero_state(self.kind, self.out_dim)

    def step(self, x: Tensor, state: CellState):
        new = cell_step(x, state, self.params)
        return new.h, new

    def named_parameters(self, prefix: str = "layer") -> dict[str, Tensor]:
        return self.params.named(prefix)


def _make_layer(spec, input_dim: int, hidden: int, rng: np.random.Generator):
    topology = layer_topology(spec, hidden)
    if topology is None:
        return CellLayer(spec.kind, input_dim, hidden, rng)
    return NorLayer(topology, input_dim, rng)


class _UniStack:
    def __init__(self, layer):
        self.layer = layer
        self.out_dim = layer.out_dim

    def run(self, inputs):
        outputs, _ = unroll(self.layer, inputs)
        return outputs

    def named_parameters(self, prefix):
        return self.layer.named_parameters(prefix)


class _BiStack:
    def __init__(self, fwd, bwd):
        self.fwd = fwd
        self.bwd = bwd
        self.out_dim = fwd.out_dim + bwd.out_dim

    def run(self, inputs):
        return bidirectional_wrap(self.fwd, self.bwd, inputs)

    def named_parameters(self, prefix):
        out = self.fwd.named_parameters(f"{prefix}.fwd")
        out.update(self.bwd.named_parameters(f"{prefix}.bwd"))
        return out


def _build_stack(config: ModelConfig, rng: np.random.Generator):
    if config.hidden is None:
        raise ValueError("config.hidden must be set to build a model")
    stacks = []
    d = config.input_dim
    for spec in config.layers:
        if config.bidirectional:
            stack = _BiStack(_make_layer(spec, d, config.hidden, rng),
                             _make_layer(spec, d, config.hidden, rng))
        else:
            stack = _UniStack(_make_layer(spec, d, config.hidden, rng))
        stacks.append(stack)
        d = stack.out_dim
    return stacks, d


class _ModelBase:
    config: ModelConfig
    embedding: np.ndarray

    def _embed(self, tokens, rng, dropout, training):
        if not tokens:
            raise ValueError("empty token sequence")
        xs = [Tensor(self.embedding[i]) for i in tokens]
        if training and dropout > 0.0:
            xs = [apply_dropout(x, dropout, rng, True) for x in xs]
        return xs

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, stack in enumerate(self.stacks):
            out.update(stack.named_parameters(f"layer{i}"))
        out.update(self.head.named())
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params) - {"embedding"}
        if missing or extra:
            raise ValueError(f"parameter mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, p in params.items():
            if arrays[name].shape != p.data.shape:
                raise ValueError(f"{name}: checkpoint shape {arrays[name].shape}, "
                                 f"model expects {p.data.shape}")
            p.data[...] = arrays[name]


class SequenceClassifier(_ModelBase):
    """Embed, run the stack, max-pool over time, classify."""

    def __init__(self, config: ModelConfig, embedding: np.ndarray,
                 label_names: list[str], rng: np.random.Generator):
        if config.head.kind != "softmax":
            raise ValueError("classifier needs a softmax head")
        if len(label_names) != config.head.classes:
            raise ValueError(f"{len(label_names)} label names for "
                             f"{config.head.classes} classes")
        self.config = config
        self.embedding = embedding
        self.label_names = list(label_names)
        self.stacks, feat_dim = _build_stack(config, rng)
        self.head = new_softmax_head(feat_dim, config.head.classes, rng)

    def _features(self, tokens, rng, dropout, training):
        xs = self._embed(tokens, rng, dropout, training)
        for stack in self.stacks:
            xs = stack.run(xs)
        pooled = max_pool_over_time(xs)
        if training and dropout > 0.0:
            pooled = apply_dropout(pooled, dropout, rng, True)
        return pooled

    def loss(self, tokens, label: int, rng=None, dropout: float = 0.0,
             training: bool = False) -> Tensor:
        feats = self._features(tokens, rng, dropout, training)
        return softmax_cross_entropy(self.head.logits(feats), label)

    def predict(self, tokens) -> int:
        feats = self._features(tokens, None, 0.0, False)
        return int(np.argmax(self.head.logits(feats).data))

    def evaluate(self, examples) -> float:
        preds = [self.predict(tokens) for tokens, _ in examples]
        return data_io.accuracy(preds, [label for _, label in examples])


class SequenceTagger(_ModelBase):
    """Embed, run the stack, project per-step emissions, CRF decode."""

    def __init__(self, config: ModelConfig, embedding: np.ndarray,
                 tag_names: list[str], rng: np.random.Generator):
        if config.head.kind != "crf":
            raise ValueError("tagger needs a crf head")
        if len(tag_names) != config.head.classes:
            raise ValueError(f"{len(tag_names)} tag names for "
                             f"{config.head.classes} tags")
        self.config = config
        self.embedding = embedding
        self.tag_names = list(tag_names)
        self.stacks, feat_dim = _build_stack(config, rng)
        self.head = new_crf_head(feat_dim, config.head.classes, rng)

    def _emissions(self, tokens, rng, dropout, training) -> Tensor:
        xs = self._embed(tokens, rng, dropout, training)
        for stack in self.stacks:
            xs = stack.run(xs)
        rows = [reshape(self.head.emission(h), (1, self.head.tags)) for h in xs]
        return concat(rows, axis=0)

    def loss(self, tokens, tags, rng=None, dropout: float = 0.0,
             training: bool = False) -> Tensor:
        em = self._emissions(tokens, rng, dropout, training)
        return crf_neg_log_likelihood(em, tags, self.head)

    def predict(self, tokens) -> list[int]:
        em = self._emissions(tokens, None, 0.0, False)
        path, _ = crf_viterbi_decode(em, self.head)
        return path

    def evaluate(self, examples) -> float:
        preds, golds = [], []
        for tokens, tags in examples:
            preds.append([self.tag_names[t] for t in self.predict(tokens)])
            golds.append([self.tag_names[t] for t in tags])
        _, _, f1 = data_io.entity_f1(preds, golds)
        return f1


def build_model(config: ModelConfig, embedding: np.ndarray, names: list[str],
                rng: np.random.Generator):
    """names are the label strings (softmax head) or tag strings (crf head)."""
    if config.head.kind == "crf":
        return SequenceTagger(config, embedding, names, rng)
    return SequenceClassifier(config, embedding, names, rng)


# --- checkpoints -----------------------------------------------------------
#
# Portable text format: a version line, the resolved config echo, the
# vocabulary and label tables, then one named float64 block per parameter
# (the frozen embedding included).  Values use %.17g, which round-trips
# float64 exactly, so save -> load -> save is byte-identical.

_MAGIC = "nornet-checkpoint 1"


@dataclass
class Checkpoint:
    config_text: str
    vocab_tokens: list[str]
    names: list[str]            # label or tag strings, head order
    arrays: dict[str, np.ndarray]


def save_checkpoint(path, model, config_text: str, vocab_tokens: list[str]) -> None:
    names = model.label_names if isinstance(model, SequenceClassifier) else model.tag_names
    arrays = {name: p.data for name, p in model.named_parameters().items()}
    arrays["embedding"] = model.embedding
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MAGIC + "\n")
        cfg_lines = config_text.splitlines()
        fh.write(f"[config] {len(cfg_lines)}\n")
        for line in cfg_lines:
            fh.write(line + "\n")
        fh.write(f"[vocab] {len(vocab_tokens)}\n")
        for tok in vocab_tokens:
            fh.write(tok + "\n")
        fh.write(f"[names] {len(names)}\n")
        for n in names:
            fh.write(n + "\n")
        fh.write(f"[params] {len(arrays)}\n")
        for name in sorted(arrays):
            arr = arrays[name]
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim} {dims}".rstrip() + "\n")
            fh.write(" ".join(f"{v:.17g}" for v in arr.reshape(-1)) + "\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    at = 1

    def block(tag):
        nonlocal at
        head = lines[at]
        if not head.startswith(f"[{tag}] "):
            raise ValueError(f"{path}: expected [{tag}] section, found {head!r}")
        count = int(head.split()[1])
        at += 1
        body = lines[at:at + count]
        at += count
        return body

    cfg = "\n".join(block("config"))
    vocab_tokens = block("vocab")
    names = block("names")
    head = lines[at]
    if not head.startswith("[params] "):
        raise ValueError(f"{path}: expected [params] section, found {head!r}")
    n_params = int(head.split()[1])
    at += 1
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        meta = lines[at].split()
        at += 1
        name, ndim = meta[0], int(meta[1])
        shape = tuple(int(d) for d in meta[2:2 + ndim])
        values = np.array([float(v) for v in lines[at].split()])
        at += 1
        arrays[name] = values.reshape(shape)
    return Checkpoint(config_text=cfg, vocab_tokens=vocab_tokens,
                      names=names, arrays=arrays)
