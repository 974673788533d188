"""Seeded synthetic corpora in the three shapes the nornet presets target.

Every sentence mixes tokens from a shared filler pool with tokens from a
small pool owned by its class (classification) or by each entity type
(tagging).  A recurrent layer followed by max-pool or a CRF can learn that
mapping, so training lowers the loss from its first epoch on.

Sentence lengths evenly cover the shape's length range and come in one
fixed order for every seed; classes are balanced.  The seed picks tokens,
labels and entities only.  Since the trainer's batch order comes from its
own preset seed, every corpus seed gives batches of the same lengths, so
the work, the tape sizes and the memory of a run do not drift with the
seed while the data does.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "dev", "test")

TREC_LABELS = ("ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM")
SST_LABELS = ("0", "1", "2", "3", "4")
ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")
CONLL_TAGS = ("O",) + tuple(f"{p}-{t}" for t in ENTITY_TYPES for p in ("B", "I"))


@dataclass(frozen=True)
class CorpusShape:
    """What to generate: format, label set, length range and split sizes.

    labels are class names for the classification formats and entity types
    for "conll".  signal is the share of a classification sentence drawn
    from its class pool; entity_every is the mean gap, in tokens, between
    entity starts in a tagging sentence.
    """

    fmt: str
    labels: tuple[str, ...]
    min_len: int
    max_len: int
    sizes: tuple[int, int, int]     # train, dev, test sentence counts
    fillers: int = 120
    pool: int = 8
    signal: float = 0.3
    entity_every: int = 5

    @property
    def tagging(self) -> bool:
        return self.fmt == "conll"

    @property
    def names(self) -> tuple[str, ...]:
        """Label table in head order: class names, or IOB2 tags."""
        return CONLL_TAGS if self.tagging else self.labels

    @property
    def vocab_size(self) -> int:
        """Distinct generated tokens, before the loader's pad and unk."""
        return self.fillers + self.pool * len(self.labels)

    def lengths(self, split: str) -> list[int]:
        """The split's sentence lengths, sorted; generate() fixes their order."""
        n = self.sizes[SPLITS.index(split)]
        span = self.max_len - self.min_len + 1
        return [self.min_len + (i * span) // n for i in range(n)]


def _pool_token(label: str, j: int) -> str:
    return f"{label.lower()}{j}"


def _classification_sentence(shape: CorpusShape, label: str, length: int, rng):
    tokens = [f"w{int(rng.integers(shape.fillers))}" for _ in range(length)]
    k = max(1, round(shape.signal * length))
    for pos in rng.choice(length, size=k, replace=False):
        tokens[int(pos)] = _pool_token(label, int(rng.integers(shape.pool)))
    return tokens, label


def _tagged_sentence(shape: CorpusShape, length: int, rng):
    tokens, tags = [], []
    while len(tokens) < length:
        room = length - len(tokens)
        if rng.random() < 1.0 / shape.entity_every:
            kind = shape.labels[int(rng.integers(len(shape.labels)))]
            span = min(int(rng.integers(1, 4)), room)
            for i in range(span):
                tokens.append(_pool_token(kind, int(rng.integers(shape.pool))))
                tags.append(("B-" if i == 0 else "I-") + kind)
            if span == room:
                break
        tokens.append(f"w{int(rng.integers(shape.fillers))}")
        tags.append("O")
    return tokens, tags


def generate(shape: CorpusShape, seed: int) -> dict[str, list]:
    """Split name -> list of (tokens, target); target is a label or tag list."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    out = {}
    for split in SPLITS:
        lengths = shape.lengths(split)
        # the same order for every seed, mixed so batches are not sorted by length
        order = np.random.default_rng(len(lengths)).permutation(len(lengths))
        lengths = [lengths[i] for i in order]
        if shape.tagging:
            out[split] = [_tagged_sentence(shape, n, rng) for n in lengths]
        else:
            labels = [shape.labels[i % len(shape.labels)] for i in range(len(lengths))]
            labels = [labels[i] for i in rng.permutation(len(labels))]
            out[split] = [_classification_sentence(shape, label, n, rng)
                          for label, n in zip(labels, lengths)]
    return out


def render(shape: CorpusShape, sentences: list) -> str:
    """Text of one split in the shape's corpus format."""
    if shape.fmt == "conll":
        lines = ["-DOCSTART- O", ""]
        for tokens, tags in sentences:
            lines.extend(f"{tok} {tag}" for tok, tag in zip(tokens, tags))
            lines.append("")
        return "\n".join(lines)
    if shape.fmt == "trec_colon":
        return "".join(f"{label}:{label.lower()} {' '.join(tokens)}\n"
                       for tokens, label in sentences)
    if shape.fmt == "tsv_label_text":
        return "".join(f"{label}\t{' '.join(tokens)}\n" for tokens, label in sentences)
    raise ValueError(f"unknown corpus format {shape.fmt!r}")


def write(shape: CorpusShape, seed: int, directory: Path) -> dict[str, Path]:
    """Generate every split and write it under directory; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, sentences in generate(shape, seed).items():
        path = directory / f"{split}.txt"
        path.write_text(render(shape, sentences), encoding="utf-8")
        paths[split] = path
    return paths
