import csv

import numpy as np
import pytest

from nornet.budget import HeadSpec, LayerSpec, ModelConfig
from nornet.data import CorpusSplits, Vocabulary, random_embeddings
from nornet.models import build_model
from nornet.tensor import ShapeError, Tensor, elementwise_mul, reduce_sum, scale, sub
from nornet.training import (AdamState, NumericError, TrainConfig, adam_step,
                             apply_dropout, train, write_metric_log)


def test_adam_first_step_closed_form():
    p = Tensor(np.array([1.0]))
    g = np.array([0.5])
    state = AdamState.for_params({"p": p})
    adam_step({"p": p}, {"p": g}, state, lr=0.1)
    # t=1 bias correction makes m_hat = g and v_hat = g^2 exactly
    want = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + state.eps)
    assert p.data[0] == pytest.approx(want, abs=1e-15)
    assert state.t == 1


def test_adam_multiple_steps_match_scalar_reference():
    p = Tensor(np.array([2.0]))
    state = AdamState.for_params({"p": p})
    grads = [0.3, -1.2, 0.7, 0.05]
    ref, m, v = 2.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        adam_step({"p": p}, {"p": np.array([g])}, state, lr=0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert p.data[0] == pytest.approx(ref, rel=1e-12)


def test_adam_rejects_shape_mismatch():
    p = Tensor(np.zeros(2))
    state = AdamState.for_params({"p": p})
    with pytest.raises(ShapeError):
        adam_step({"p": p}, {"p": np.zeros(3)}, state, lr=0.1)


def test_dropout_identity_at_zero_rate():
    x = Tensor(np.ones(8))
    assert apply_dropout(x, 0.0, np.random.default_rng(70)) is x


def test_dropout_mask_values_and_expectation():
    x = Tensor(np.ones(10_000))
    y = apply_dropout(x, 0.5, np.random.default_rng(71)).data
    assert set(np.unique(y)) <= {0.0, 2.0}
    assert y.mean() == pytest.approx(1.0, abs=0.05)
    y25 = apply_dropout(x, 0.25, np.random.default_rng(72)).data
    assert set(np.unique(y25)) <= {0.0, 1.0 / 0.75}
    assert y25.mean() == pytest.approx(1.0, abs=0.05)


def test_dropout_rate_bounds():
    x = Tensor(np.ones(2))
    rng = np.random.default_rng(73)
    with pytest.raises(ValueError):
        apply_dropout(x, 1.0, rng)
    with pytest.raises(ValueError):
        apply_dropout(x, -0.1, rng)


class Scripted:
    """Minimal trainable object with a scripted dev-metric sequence."""

    def __init__(self, metrics):
        self.w = Tensor(np.zeros(1))
        self.metrics = list(metrics)
        self.calls = 0

    def named_parameters(self):
        return {"w": self.w}

    def loss(self, tokens, target, rng, dropout, training):
        d = sub(self.w, Tensor(np.full(1, float(target))))
        return reduce_sum(elementwise_mul(d, d))

    def evaluate(self, examples):
        m = self.metrics[min(self.calls, len(self.metrics) - 1)]
        self.calls += 1
        return m


def _tiny_corpus(n=4):
    return CorpusSplits(train=[([1, 2], 1.0)] * n, dev=[([1], 1.0)])


def _cfg(**kw):
    base = dict(lr=0.05, batch_size=2, max_epochs=10, dropout=0.0,
                patience=5, lr_decay=1.0, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_zero_patience_runs_exactly_one_epoch():
    model = Scripted([0.5, 0.9, 0.9])
    result = train(model, _tiny_corpus(), _cfg(patience=0))
    assert len(result.rows) == 1 and result.best_epoch == 1


def test_early_stop_counts_strictly_stale_epochs():
    # .6 then three non-improvements with patience 2 stops after epoch 4
    model = Scripted([0.5, 0.6, 0.6, 0.6, 0.7])
    result = train(model, _tiny_corpus(), _cfg(patience=2))
    assert [r[0] for r in result.rows] == [1, 2, 3, 4]
    assert result.best_epoch == 2 and result.best_metric == 0.6


def test_target_metric_short_circuits():
    model = Scripted([0.5, 0.96, 0.99])
    result = train(model, _tiny_corpus(), _cfg(target_metric=0.95))
    assert len(result.rows) == 2 and result.best_metric == 0.96


def test_lr_decay_schedule_recorded_per_epoch():
    model = Scripted([0.1, 0.2, 0.3, 0.4])
    result = train(model, _tiny_corpus(), _cfg(max_epochs=3, lr_decay=0.5))
    lrs = [r[3] for r in result.rows]
    assert lrs == [0.05, 0.025, 0.0125]


def test_best_snapshot_restored_into_model():
    cfg1 = _cfg(max_epochs=1)
    m1 = Scripted([0.9])
    train(m1, _tiny_corpus(), cfg1)
    after_one = m1.w.data.tobytes()

    m2 = Scripted([0.9, 0.1, 0.1, 0.1])
    result = train(m2, _tiny_corpus(), _cfg(max_epochs=4, patience=3))
    assert result.best_epoch == 1
    assert m2.w.data.tobytes() == after_one  # same seed, same epoch-1 weights
    assert result.best_params["w"].tobytes() == after_one


def test_non_finite_loss_raises_numeric_error():
    class Exploding(Scripted):
        def loss(self, tokens, target, rng, dropout, training):
            return scale(Tensor(np.full((), np.inf)), 1.0)

    with pytest.raises(NumericError):
        train(Exploding([0.5]), _tiny_corpus(), _cfg())


def test_empty_splits_rejected():
    with pytest.raises(ValueError):
        train(Scripted([0.5]), CorpusSplits(train=[], dev=[([1], 1.0)]), _cfg())
    with pytest.raises(ValueError):
        train(Scripted([0.5]), CorpusSplits(train=[([1], 1.0)], dev=[]), _cfg())


def test_pad_length_resolution_and_cropping():
    # 95th percentile of 1..20 rounds up to 20; explicit override wins
    corpus = CorpusSplits(train=[(list(range(n)), 0.0) for n in range(1, 21)],
                          dev=[([1], 0.0)])
    model = Scripted([0.5])
    result = train(model, corpus, _cfg(max_epochs=1))
    assert result.pad_length == 20
    result = train(Scripted([0.5]), corpus, _cfg(max_epochs=1, pad_length=7))
    assert result.pad_length == 7


def test_tag_targets_crop_with_tokens():
    from nornet.training import _crop
    tokens, tags = _crop(([1, 2, 3, 4], [9, 8, 7, 6]), 2)
    assert tokens == [1, 2] and tags == [9, 8]
    tokens, label = _crop(([1, 2, 3], 4), 2)
    assert tokens == [1, 2] and label == 4


def _real_setup(seed):
    vocab = Vocabulary(tokens=["<pad>", "<unk>", "aa", "bb", "cc", "dd"])
    table = random_embeddings(vocab, 4, np.random.default_rng(5))
    cfg = ModelConfig(input_dim=4, layers=(LayerSpec(kind="parallel"),),
                      head=HeadSpec("softmax", 2), hidden=3)
    model = build_model(cfg, table, ["x", "y"], np.random.default_rng(seed))
    corpus = CorpusSplits(
        train=[([2, 3], 0), ([4, 5], 1), ([2, 2], 0), ([5, 4], 1),
               ([3, 2], 0), ([4, 4], 1), ([3, 3], 0), ([5, 5], 1)],
        dev=[([2, 3], 0), ([4, 5], 1)])
    return model, corpus


def test_training_is_bitwise_deterministic():
    runs = []
    for _ in range(2):
        model, corpus = _real_setup(seed=7)
        result = train(model, corpus, _cfg(max_epochs=2, dropout=0.5, seed=3))
        params = model.named_parameters()
        runs.append((result.rows,
                     b"".join(params[k].data.tobytes() for k in sorted(params))))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_metric_log_roundtrips_float64(tmp_path):
    rows = [(1, 1.2345678901234567, 0.3333333333333333, 5e-4),
            (2, 0.9999999999999999, 2.0 / 3.0, 2.5e-4)]
    path = tmp_path / "metrics.csv"
    write_metric_log(path, rows)
    with open(path) as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["epoch", "train_loss", "dev_metric", "lr"]
    for row, want in zip(back[1:], rows):
        assert int(row[0]) == want[0]
        assert float(row[1]) == want[1]
        assert float(row[2]) == want[2]
        assert float(row[3]) == want[3]


def test_train_config_validation():
    with pytest.raises(ValueError):
        _cfg(lr=0.0)
    with pytest.raises(ValueError):
        _cfg(batch_size=0)
    with pytest.raises(ValueError):
        _cfg(dropout=1.0)
    with pytest.raises(ValueError):
        _cfg(patience=-1)
    with pytest.raises(ValueError):
        _cfg(max_epochs=0)
