"""Corpus loading, embeddings, and evaluation metrics.

Three corpus formats are supported:

  tsv_label_text   one example per line, "label<TAB>token token ..."
  trec_colon       one example per line, "COARSE:fine token token ...";
                   only the coarse label before the colon is kept
  conll            one token per line, columns separated by whitespace with
                   the token first and the tag last; blank lines separate
                   sentences, -DOCSTART- lines are skipped

Tag sequences are normalized to IOB2 on load: a chunk-internal tag that
opens an entity becomes an explicit begin tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FORMATS", "CorpusError", "Vocabulary", "Corpus", "CorpusSplits",
    "load_classification_corpus", "load_conll", "to_iob2",
    "load_embeddings", "random_embeddings",
    "accuracy", "entity_spans", "entity_f1",
]

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# every corpus format and its targets: a label per sentence or a tag per token
FORMATS = {"tsv_label_text": "label", "trec_colon": "label", "conll": "tag"}


class CorpusError(ValueError):
    """Raised on malformed corpus or embedding files."""


@dataclass
class Vocabulary:
    """Token-to-id table; id 0 is padding, id 1 the unknown token."""

    tokens: list[str] = field(default_factory=lambda: [PAD_TOKEN, UNK_TOKEN])
    index: dict[str, int] = None

    def __post_init__(self):
        if self.index is None:
            self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def add(self, token: str) -> int:
        if token not in self.index:
            self.index[token] = len(self.tokens)
            self.tokens.append(token)
        return self.index[token]

    def id(self, token: str) -> int:
        return self.index.get(token, self.index[UNK_TOKEN])


@dataclass
class Corpus:
    """Sentences of token ids with their targets: one label id per sentence
    for classification, one tag id per token for tagging.  names maps a
    target id to its label or tag string."""

    sentences: list[list[int]]
    targets: list
    names: list[str]
    vocab: Vocabulary

    def examples(self) -> list[tuple]:
        return list(zip(self.sentences, self.targets))


@dataclass
class CorpusSplits:
    """What the trainer consumes: train/dev (and optionally test) examples."""

    train: list
    dev: list
    test: list | None = None


def _parse_line(line: str, fmt: str, path, lineno: int):
    if fmt == "tsv_label_text":
        if "\t" not in line:
            raise CorpusError(f"{path}:{lineno}: expected 'label<TAB>text'")
        label, text = line.split("\t", 1)
        label = label.strip()
        tokens = text.split()
    elif fmt == "trec_colon":
        head, _, rest = line.partition(" ")
        if ":" not in head:
            raise CorpusError(f"{path}:{lineno}: expected 'COARSE:fine question'")
        label = head.split(":", 1)[0]
        tokens = rest.split()
    else:
        raise CorpusError(f"unknown classification format {fmt!r}")
    if not label:
        raise CorpusError(f"{path}:{lineno}: empty label")
    if not tokens:
        raise CorpusError(f"{path}:{lineno}: sentence has no tokens")
    return label, tokens


def _index(records, path, vocab: Vocabulary | None, names: list[str] | None,
           what: str) -> Corpus:
    """Map (line, tokens, target names) records to ids.

    Without a vocab and name table both grow from the records.  With them,
    unseen tokens map to <unk> and an unseen name is an error at its line.
    """
    if vocab is None:
        vocab = Vocabulary()
        to_id = vocab.add
    else:
        to_id = vocab.id
    grow_names = names is None
    names = [] if names is None else list(names)
    name_index = {name: i for i, name in enumerate(names)}

    sentences, targets = [], []
    for lineno, tokens, target_names in records:
        ids = []
        for name in target_names:
            if name not in name_index:
                if not grow_names:
                    raise CorpusError(f"{path}:{lineno}: unknown {what} {name!r}")
                name_index[name] = len(names)
                names.append(name)
            ids.append(name_index[name])
        sentences.append([to_id(t) for t in tokens])
        targets.append(ids)
    if not sentences:
        raise CorpusError(f"{path}: corpus is empty")
    return Corpus(sentences, targets, names, vocab)


def _classification_records(path, fmt: str, lowercase: bool):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            label, tokens = _parse_line(line, fmt, path, lineno)
            if lowercase:
                tokens = [t.lower() for t in tokens]
            yield lineno, tokens, [label]


def load_classification_corpus(path, fmt: str, lowercase: bool = True,
                               vocab: Vocabulary | None = None,
                               label_names: list[str] | None = None) -> Corpus:
    """Load a one-sentence-per-line corpus.

    Pass the training split's vocab and label_names when loading dev/test
    so ids stay aligned; with a fixed label table an unseen label string
    is an error.
    """
    corpus = _index(_classification_records(path, fmt, lowercase), path,
                    vocab, label_names, "label")
    corpus.targets = [label for (label,) in corpus.targets]
    return corpus


def to_iob2(tags: list[str]) -> list[str]:
    """Normalize a tag sequence so every entity starts with B-.

    Chunk-internal tags that open an entity (sequence start, after O, or
    after a different entity type) are rewritten to begin tags; everything
    else passes through.  Applying it twice changes nothing.
    """
    out = []
    prev = "O"
    for tag in tags:
        if tag.startswith("I-"):
            kind = tag[2:]
            if prev == "O" or (prev[2:] if len(prev) > 2 else "") != kind:
                tag = "B-" + kind
        elif tag != "O" and not tag.startswith("B-"):
            raise CorpusError(f"malformed chunk tag {tag!r}")
        out.append(tag)
        prev = tag
    return out


def _conll_records(path):
    """One record per sentence, numbered by the line that closes it."""
    tokens, tags, ncols = [], [], None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            cols = raw.split()
            if not cols or cols[0] == "-DOCSTART-":
                if tokens:
                    yield lineno, tokens, to_iob2(tags)
                tokens, tags = [], []
                continue
            if len(cols) < 2:
                raise CorpusError(f"{path}:{lineno}: need at least token and tag columns")
            if ncols is None:
                ncols = len(cols)
            elif len(cols) != ncols:
                raise CorpusError(f"{path}:{lineno}: ragged columns "
                                  f"({len(cols)} here, {ncols} earlier)")
            tokens.append(cols[0])
            tags.append(cols[-1])
    if tokens:
        yield "eof", tokens, to_iob2(tags)


def load_conll(path, vocab: Vocabulary | None = None,
               tag_names: list[str] | None = None) -> Corpus:
    """Load a column-format tagging corpus; tags are normalized to IOB2."""
    return _index(_conll_records(path), path, vocab, tag_names, "tag")


def load_embeddings(path, vocab: Vocabulary, dim: int) -> np.ndarray:
    """Read single-space-separated word vectors into a (V, dim) float64 table;
    trailing whitespace, which word2vec's text format writes, is ignored.

    Tokens missing from the file get zero vectors, as do padding and
    unknown.  The returned table is marked read-only: embeddings are never
    trained.
    """
    table = np.zeros((len(vocab), dim))
    wanted = vocab.index
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.rstrip().split(" ")
            if len(parts) < 2:
                continue
            token, values = parts[0], parts[1:]
            if token not in wanted:
                continue
            if len(values) != dim:
                raise CorpusError(f"{path}:{lineno}: expected {dim} values, got {len(values)}")
            try:
                vec = np.array([float(v) for v in values])
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: bad float in vector") from exc
            table[wanted[token]] = vec
    table[0] = 0.0
    table[vocab.index[UNK_TOKEN]] = 0.0
    table.flags.writeable = False
    return table


def random_embeddings(vocab: Vocabulary, dim: int, rng: np.random.Generator,
                      scale: float = 1.0) -> np.ndarray:
    """Gaussian stand-in table for runs without pretrained vectors; padding
    and unknown stay zero and the table is read-only like a loaded one."""
    table = rng.normal(0.0, scale, size=(len(vocab), dim))
    table[0] = 0.0
    table[vocab.index[UNK_TOKEN]] = 0.0
    table.flags.writeable = False
    return table


def accuracy(predicted, gold) -> float:
    if len(predicted) != len(gold):
        raise ValueError(f"{len(predicted)} predictions for {len(gold)} references")
    if not gold:
        raise ValueError("empty evaluation set")
    hits = sum(1 for p, g in zip(predicted, gold) if p == g)
    return hits / len(gold)


def entity_spans(tags: list[str]) -> set[tuple[str, int, int]]:
    """(type, start, end) spans of an IOB2 sequence, end exclusive."""
    spans = set()
    start = None
    kind = None
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            if start is not None:
                spans.add((kind, start, i))
            start, kind = i, tag[2:]
        elif tag.startswith("I-"):
            if start is None or tag[2:] != kind:
                raise CorpusError(f"dangling {tag!r} at position {i}")
        elif tag == "O":
            if start is not None:
                spans.add((kind, start, i))
            start, kind = None, None
        else:
            raise CorpusError(f"malformed chunk tag {tag!r}")
    if start is not None:
        spans.add((kind, start, len(tags)))
    return spans


def entity_f1(predicted: list[list[str]], gold: list[list[str]]) -> tuple[float, float, float]:
    """Span-exact precision, recall and F1 over tag-name sequences.

    Gold must be valid IOB2.  Predictions are normalized first (a model is
    free to emit a dangling chunk-internal tag; it is read as opening an
    entity), then matched on exact (type, start, end).
    """
    if len(predicted) != len(gold):
        raise ValueError(f"{len(predicted)} predicted sequences for {len(gold)} gold")
    match = pred_total = gold_total = 0
    for p_tags, g_tags in zip(predicted, gold):
        if len(p_tags) != len(g_tags):
            raise ValueError("prediction and reference lengths differ")
        p_spans = entity_spans(to_iob2(p_tags))
        g_spans = entity_spans(g_tags)
        match += len(p_spans & g_spans)
        pred_total += len(p_spans)
        gold_total += len(g_spans)
    precision = match / pred_total if pred_total else 0.0
    recall = match / gold_total if gold_total else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
    return precision, recall, f1
