"""Model assembly: embedding + recurrent stacks + head, plus checkpoint io.

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
        self.params = new_cell_params(kind, input_dim, hidden, rng)

    def initial_state(self) -> CellState:
        return zero_state(self.params.kind, self.params.hidden)

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


class _ModelBase:
    """Embed, run every stack, then the head a subclass names.

    A stack is a tuple of direction layers, (layer,) or (fwd, bwd); every
    layer outputs `hidden` wide, so a stack outputs hidden * len(stack).
    """

    head_kind: str

    def __init__(self, config: ModelConfig, embedding: np.ndarray,
                 names: list[str], rng: np.random.Generator):
        """names are the label or tag strings, in head order."""
        if config.head.kind != self.head_kind:
            raise ValueError(f"{type(self).__name__} needs a {self.head_kind} head")
        if len(names) != config.head.classes:
            raise ValueError(f"{len(names)} names for {config.head.classes} classes")
        if config.hidden is None:
            raise ValueError("config.hidden must be set to build a model")
        self.config = config
        self.embedding = embedding
        self.names = list(names)
        self.stacks: list[tuple] = []
        d = config.input_dim
        for spec in config.layers:
            stack = tuple(_make_layer(spec, d, config.hidden, rng)
                          for _ in range(2 if config.bidirectional else 1))
            self.stacks.append(stack)
            d = config.hidden * len(stack)
        self.head = self._new_head(d, config.head.classes, rng)

    def _embed(self, tokens) -> list[Tensor]:
        if not tokens:
            raise ValueError("empty token sequence")
        return [Tensor(self.embedding[i]) for i in tokens]

    def _encode(self, tokens, rng, dropout, training) -> list[Tensor]:
        xs = self._embed(tokens)
        if training:
            xs = [apply_dropout(x, dropout, rng) for x in xs]
        for stack in self.stacks:
            xs = unroll(stack[0], xs)[0] if len(stack) == 1 else bidirectional_wrap(*stack, xs)
        return xs

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, stack in enumerate(self.stacks):
            suffixes = ("",) if len(stack) == 1 else (".fwd", ".bwd")
            for layer, suffix in zip(stack, suffixes):
                out.update(layer.named_parameters(f"layer{i}{suffix}"))
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
    """Embed, run the stacks, max-pool over time, classify."""

    head_kind = "softmax"
    _new_head = staticmethod(new_softmax_head)

    def _features(self, tokens, rng, dropout, training):
        pooled = max_pool_over_time(self._encode(tokens, rng, dropout, training))
        if training:
            pooled = apply_dropout(pooled, dropout, rng)
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
    """Embed, run the stacks, project per-step emissions, CRF decode."""

    head_kind = "crf"
    _new_head = staticmethod(new_crf_head)

    def _emissions(self, tokens, rng, dropout, training) -> Tensor:
        xs = self._encode(tokens, rng, dropout, training)
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
            preds.append([self.names[t] for t in self.predict(tokens)])
            golds.append([self.names[t] for t in tags])
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
_SECTIONS = (("config", 1), ("vocab", 1), ("names", 1), ("params", 2))  # (tag, lines per entry)


@dataclass
class Checkpoint:
    config_text: str
    vocab_tokens: list[str]
    names: list[str]            # label or tag strings, head order
    arrays: dict[str, np.ndarray]


def save_checkpoint(path, model, config_text: str, vocab_tokens: list[str]) -> None:
    arrays = {name: p.data for name, p in model.named_parameters().items()}
    arrays["embedding"] = model.embedding
    params = []
    for name in sorted(arrays):
        arr = arrays[name]
        params.append(" ".join([name, str(arr.ndim), *map(str, arr.shape)]))
        params.append(" ".join(f"{v:.17g}" for v in arr.reshape(-1)))
    bodies = (config_text.splitlines(), vocab_tokens, model.names, params)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MAGIC + "\n")
        for (tag, per), body in zip(_SECTIONS, bodies):
            fh.write(f"[{tag}] {len(body) // per}\n")
            fh.writelines(line + "\n" for line in body)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed part raises ValueError naming the
    file and the section."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines[:1] != [_MAGIC]:
        raise ValueError(f"{path}: not a checkpoint file")
    at, body = 1, {}
    for tag, per in _SECTIONS:
        head = lines[at] if at < len(lines) else "end of file"
        label, _, count = head.partition(" ")
        if label != f"[{tag}]" or not count.isdigit():
            raise ValueError(f"{path}: [{tag}] section: expected '[{tag}] <count>', found {head!r}")
        n, left = int(count) * per, len(lines) - at - 1
        if n > left:
            raise ValueError(f"{path}: [{tag}] section: {count} entries need {n} lines, {left} left")
        body[tag] = lines[at + 1:at + 1 + n]
        at += 1 + n
    arrays: dict[str, np.ndarray] = {}
    for meta, values in zip(body["params"][0::2], body["params"][1::2]):
        name, *fields = meta.split(" ")
        try:
            ndim, *shape = map(int, fields)
            data = np.array([float(v) for v in values.split()])
            if len(shape) != ndim or data.size != np.prod(shape):
                raise ValueError(f"shape {fields} does not hold {data.size} values")
            arrays[name] = data.reshape(shape)
        except ValueError as exc:
            raise ValueError(f"{path}: [params] section: array {name!r}: {exc}") from None
    return Checkpoint(config_text="\n".join(body["config"]), vocab_tokens=body["vocab"],
                      names=body["names"], arrays=arrays)
