"""Training loop: Adam, inverted dropout, fixed-length batching, early stopping.

Everything is driven by one numpy Generator seeded from TrainConfig, and
every reduction runs in a fixed order, so a (seed, config, data) triple
reproduces the training trace bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tape, Tensor, ShapeError, _emit, add, scale

__all__ = [
    "TrainConfig", "TrainResult", "AdamState", "NumericError",
    "adam_step", "apply_dropout", "train", "write_metric_log",
]


class NumericError(ArithmeticError):
    """Raised when a loss or a gradient stops being finite."""


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 20
    max_epochs: int = 25
    dropout: float = 0.5
    patience: int = 5
    lr_decay: float = 1.0
    seed: int = 1
    pad_length: int | None = None   # None: 95th percentile of training lengths
    target_metric: float | None = None  # stop once the dev metric reaches this

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if self.patience < 0:
            raise ValueError("patience cannot be negative")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.pad_length is not None and self.pad_length < 1:
            raise ValueError("pad_length must be positive when set")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's decay rates and denominator floor


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient for {name} has shape {g.shape}, "
                             f"parameter is {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1 ** state.t)
        v_hat = v / (1 - BETA2 ** state.t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def apply_dropout(x, rate: float, rng: np.random.Generator):
    """Inverted dropout: zero entries with probability rate and scale the
    survivors by 1/(1-rate), so the expectation matches the input; rate 0 is
    the identity.  An ndarray is masked in numpy, off the tape; a Tensor is
    masked by one tape op whose only input is x, so the mask is no leaf."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate).astype(np.float64) * (1.0 / (1.0 - rate))
    if isinstance(x, np.ndarray):
        return x * mask
    return _emit("dropout", x.data * mask, (x,), lambda g: (g * mask,))


@dataclass
class TrainResult:
    rows: list[tuple]           # (epoch, train_loss, dev_metric, lr)
    best_epoch: int
    best_metric: float
    pad_length: int


def _resolve_pad_length(config: TrainConfig, examples) -> int:
    if config.pad_length is not None:
        return config.pad_length
    lengths = [len(tokens) for tokens, _ in examples]
    return max(1, int(np.ceil(np.percentile(lengths, 95))))


def _crop(example, length: int):
    tokens, target = example
    n = max(1, min(len(tokens), length))
    if isinstance(target, (list, tuple)):
        return list(tokens[:n]), list(target[:n])
    return list(tokens[:n]), target


def train(model, corpus, config: TrainConfig) -> TrainResult:
    """Train until the dev metric stops improving.

    corpus needs .train and .dev example lists of (tokens, target).  The
    best-dev parameter snapshot is restored into the model before
    returning, so the model never ends up worse than its best epoch.
    """
    if not corpus.train:
        raise ValueError("training split is empty")
    if not corpus.dev:
        raise ValueError("dev split is empty")
    rng = np.random.default_rng(config.seed)
    length = _resolve_pad_length(config, corpus.train)
    train_set = [_crop(ex, length) for ex in corpus.train]
    dev_set = [_crop(ex, length) for ex in corpus.dev]

    params = model.named_parameters()
    opt = AdamState.for_params(params)
    lr = config.lr
    rows: list[tuple] = []
    best_metric = -np.inf
    best_epoch = 0
    best_snap: dict[str, np.ndarray] = {}
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_set))
        loss_sum = 0.0
        seen = 0
        for at in range(0, len(order), config.batch_size):
            batch = order[at:at + config.batch_size]
            # the checks below name a non-finite value; numpy need not warn
            with Tape() as tape, np.errstate(all="ignore"):
                total = None
                for idx in batch:
                    tokens, target = train_set[idx]
                    one = model.loss(tokens, target, rng=rng,
                                     dropout=config.dropout, training=True)
                    if not np.isfinite(one.data):
                        raise NumericError(f"non-finite loss at epoch {epoch} on training "
                                           f"sentence {idx} ({len(tokens)} tokens)")
                    total = one if total is None else add(total, one)
                batch_loss = scale(total, 1.0 / len(batch))
                value = float(batch_loss.data)
                tape.backward(batch_loss)
                grads = {name: tape.grad(p) for name, p in params.items()}
            bad = next((name for name, g in grads.items() if not np.isfinite(g).all()), None)
            if bad is not None:
                raise NumericError(f"non-finite gradient for {bad} at epoch {epoch}")
            adam_step(params, grads, opt, lr)
            loss_sum += value * len(batch)
            seen += len(batch)

        dev_metric = model.evaluate(dev_set)
        rows.append((epoch, loss_sum / seen, dev_metric, lr))

        if dev_metric > best_metric:
            best_metric = dev_metric
            best_epoch = epoch
            best_snap = {k: p.data.copy() for k, p in params.items()}
            stale = 0
        else:
            stale += 1
        if config.target_metric is not None and dev_metric >= config.target_metric:
            break
        if stale >= config.patience:
            break
        lr *= config.lr_decay

    for name, p in params.items():
        p.data[...] = best_snap[name]
    return TrainResult(rows=rows, best_epoch=best_epoch, best_metric=best_metric,
                       pad_length=length)


def write_metric_log(path, rows) -> None:
    """Write the per-epoch log as CSV: epoch, train_loss, dev_metric, lr."""
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "dev_metric", "lr"])
        for epoch, loss, metric, lr in rows:
            writer.writerow([epoch, f"{loss:.17g}", f"{metric:.17g}", f"{lr:.17g}"])
