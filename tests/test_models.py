import gc
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from nornet.budget import HeadSpec, LayerSpec, ModelConfig
from nornet.data import Vocabulary, random_embeddings
from nornet.heads import crf_neg_log_likelihood, max_pool_over_time, softmax_cross_entropy
from nornet.models import (SequenceClassifier, SequenceTagger, build_model,
                           load_checkpoint, save_checkpoint)
from nornet.nor import LAYER_KINDS, unroll
from nornet.tensor import Tape, Tensor, concat
from nornet.training import apply_dropout


def _vocab():
    return Vocabulary(tokens=["<pad>", "<unk>", "aa", "bb", "cc", "dd"])


def _classifier(kind="parallel", hidden=3, rng_seed=80, bi=False):
    cfg = ModelConfig(input_dim=4, layers=(LayerSpec(kind=kind),),
                      head=HeadSpec("softmax", 2), bidirectional=bi, hidden=hidden)
    table = random_embeddings(_vocab(), 4, np.random.default_rng(6))
    return build_model(cfg, table, ["x", "y"], np.random.default_rng(rng_seed)), cfg


def _tagger(hidden=3, rng_seed=81):
    cfg = ModelConfig(input_dim=4, layers=(LayerSpec(kind="shared"),),
                      head=HeadSpec("crf", 3), bidirectional=True, hidden=hidden)
    table = random_embeddings(_vocab(), 4, np.random.default_rng(6))
    names = ["O", "B-X", "I-X"]
    return build_model(cfg, table, names, np.random.default_rng(rng_seed)), cfg


def test_build_model_dispatches_on_head():
    clf, _ = _classifier()
    tag, _ = _tagger()
    assert isinstance(clf, SequenceClassifier)
    assert isinstance(tag, SequenceTagger)


def test_classifier_runs_and_scores():
    model, _ = _classifier()
    with Tape() as tape:
        loss = model.loss([2, 3, 4], 0, rng=np.random.default_rng(0),
                          dropout=0.5, training=True)
        tape.backward(loss)
    assert loss.data.shape == () and np.isfinite(loss.data)
    assert model.predict([2, 3, 4]) in (0, 1)
    acc = model.evaluate([([2, 3], 0), ([4, 5], 1)])
    assert 0.0 <= acc <= 1.0


def test_classifier_prediction_ignores_dropout_state():
    model, _ = _classifier()
    assert model.predict([2, 3, 4]) == model.predict([2, 3, 4])


def test_tagger_runs_and_scores():
    model, _ = _tagger()
    with Tape() as tape:
        loss = model.loss([2, 3, 4], [0, 1, 2])
        tape.backward(loss)
    assert np.isfinite(loss.data) and loss.data > 0
    path = model.predict([2, 3, 4])
    assert len(path) == 3 and all(0 <= t < 3 for t in path)
    f1 = model.evaluate([([2, 3], [1, 2])])
    assert 0.0 <= f1 <= 1.0


def test_tagger_likelihood_is_one_tape_node():
    model, _ = _tagger()
    with Tape() as tape:
        model.loss([2, 3, 4, 5], [0, 1, 2, 0])
    kinds = [node.kind for node in tape.nodes]
    assert kinds.count("crf_nll") == 1 and kinds[-1] == "crf_nll"
    assert not {"reshape", "slice", "log_sum_exp"} & set(kinds)


def test_classifier_loss_is_two_head_nodes():
    model, _ = _classifier()
    with Tape() as tape:
        model.loss([2, 3, 4, 5], 1, rng=np.random.default_rng(0), dropout=0.5, training=True)
    kinds = [node.kind for node in tape.nodes]
    assert kinds.count("max_pool") == 1 and kinds.count("softmax_ce") == 1
    assert kinds[-1] == "softmax_ce"
    assert not {"maximum", "slice", "log_sum_exp", "sub"} & set(kinds)


def test_empty_sequence_rejected():
    model, _ = _classifier()
    with pytest.raises(ValueError):
        model.loss([], 0)


def test_head_names_must_match_class_count():
    cfg = ModelConfig(input_dim=4, layers=(LayerSpec(kind="simple"),),
                      head=HeadSpec("softmax", 3), hidden=2)
    table = random_embeddings(_vocab(), 4, np.random.default_rng(6))
    with pytest.raises(ValueError):
        build_model(cfg, table, ["only", "two"], np.random.default_rng(0))


def test_bidirectional_doubles_feature_width():
    uni, _ = _classifier(bi=False)
    bi, _ = _classifier(bi=True)
    assert bi.head.w.data.shape[1] == 2 * uni.head.w.data.shape[1]


def test_named_parameters_cover_layers_and_head():
    model, _ = _classifier(kind="mixed")
    names = set(model.named_parameters())
    assert any(n.startswith("layer0.") for n in names)
    assert "head.w" in names and "head.b" in names


def test_load_state_validates_names_and_shapes():
    model, _ = _classifier()
    state = {k: v.data.copy() for k, v in model.named_parameters().items()}
    bad = dict(state)
    del bad["head.b"]
    with pytest.raises(ValueError, match="head.b"):
        model.load_state(bad)
    bad = dict(state)
    bad["rogue"] = np.zeros(1)
    with pytest.raises(ValueError, match="rogue"):
        model.load_state(bad)
    bad = dict(state)
    bad["head.w"] = np.zeros((9, 9))
    with pytest.raises(ValueError, match="head.w"):
        model.load_state(bad)
    state["embedding"] = model.embedding  # tolerated extra
    model.load_state(state)


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    model, _ = _classifier(kind="gated")
    path = tmp_path / "m.ckpt"
    cfg_text = "[model]\ntask = trec\n"
    vocab_tokens = _vocab().tokens
    save_checkpoint(path, model, cfg_text, vocab_tokens)
    ckpt = load_checkpoint(path)

    assert ckpt.config_text.rstrip("\n") == cfg_text.rstrip("\n")
    assert ckpt.vocab_tokens == vocab_tokens
    assert ckpt.names == ["x", "y"]
    params = model.named_parameters()
    for name, p in params.items():
        assert ckpt.arrays[name].tobytes() == p.data.tobytes(), name
    assert ckpt.arrays["embedding"].tobytes() == model.embedding.tobytes()

    # a fresh model with different init must load back to identical bits
    other, _ = _classifier(kind="gated", rng_seed=999)
    other.load_state(ckpt.arrays)
    for name, p in other.named_parameters().items():
        assert p.data.tobytes() == params[name].data.tobytes(), name


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a checkpoint\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)


_HEADER = "nornet-checkpoint 1\n"
MALFORMED_CHECKPOINTS = {
    "truncated section": (_HEADER + "[config] 3\n", "[config]"),
    "non-integer count": (_HEADER + "[config] x\n", "[config]"),
    "wrong value count": (_HEADER + "[config] 0\n[vocab] 0\n[names] 0\n[params] 1\n"
                          "w 2 2 3\n1 2 3 4 5\n", "[params]"),
    "missing values line": (_HEADER + "[config] 0\n[vocab] 0\n[names] 0\n[params] 1\n"
                            "w 1 2\n", "[params]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_checkpoint_reader_names_file_and_section(tmp_path, case):
    text, section = MALFORMED_CHECKPOINTS[case]
    path = tmp_path / "bad.ckpt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {section} section")):
        load_checkpoint(path)


def test_stacked_layers_feed_forward(tmp_path):
    cfg = ModelConfig(input_dim=4, layers=(LayerSpec(kind="simple"),) * 2,
                      head=HeadSpec("softmax", 2), hidden=3)
    table = random_embeddings(_vocab(), 4, np.random.default_rng(6))
    model = build_model(cfg, table, ["x", "y"], np.random.default_rng(82))
    names = set(model.named_parameters())
    assert any(n.startswith("layer0.") for n in names)
    assert any(n.startswith("layer1.") for n in names)
    assert model.predict([2, 3]) in (0, 1)


# --- the time-major boundary ------------------------------------------------

_TOKENS = [2, 5, 3, 3, 4, 2, 5, 4, 3, 2]
_BOUNDARY = [(kind, head, bi) for kind in sorted(LAYER_KINDS) for head in ("softmax", "crf")
             for bi in (False, True)]
_BOUNDARY_IDS = [f"{kind}-{head}-{'bi' if bi else 'uni'}" for kind, head, bi in _BOUNDARY]


def _two_layer(kind, head, bi):
    cfg = ModelConfig(input_dim=4, layers=(LayerSpec(kind),) * 2, head=HeadSpec(head, 3),
                      bidirectional=bi, hidden=3)
    table = random_embeddings(_vocab(), 4, np.random.default_rng(6))
    return build_model(cfg, table, ["a", "b", "c"], np.random.default_rng(90))


def _target(model, tokens):
    return [t % 3 for t in tokens] if model.head_kind == "crf" else 2


def _per_token_loss(model, tokens, target, rng, rate):
    """The model's training loss composed from the per-step public ops."""
    xs = [apply_dropout(Tensor(model.embedding[i]), rate, rng) for i in tokens]
    for stack in model.stacks:
        if len(stack) == 1:
            xs = unroll(stack[0], xs)[0]
        else:
            fwd = unroll(stack[0], xs)[0]
            bwd = unroll(stack[1], xs[::-1])[0][::-1]
            xs = [concat([f, b]) for f, b in zip(fwd, bwd)]
    if model.head_kind == "crf":
        return crf_neg_log_likelihood([model.head.emission(h) for h in xs], target, model.head)
    pooled = apply_dropout(max_pool_over_time(xs), rate, rng)
    return softmax_cross_entropy(model.head.logits(pooled), target)


@pytest.mark.parametrize("kind, head, bi", _BOUNDARY, ids=_BOUNDARY_IDS)
def test_loss_is_the_per_token_composition(kind, head, bi):
    # same loss bits and the same random draws; the one-matrix backward
    # products add in another order, so gradients agree within 1e-12
    model = _two_layer(kind, head, bi)
    params = model.named_parameters()
    tokens = _TOKENS[:6]
    target = _target(model, tokens)

    def run(loss_of):
        rng = np.random.default_rng(91)
        with Tape() as tape:
            loss = loss_of(rng)
            tape.backward(loss)
        return loss.data, {n: tape.grad(p) for n, p in params.items()}, rng.bit_generator.state

    got, grads, state = run(lambda rng: model.loss(tokens, target, rng=rng, dropout=0.5,
                                                   training=True))
    want, want_grads, want_state = run(lambda rng: _per_token_loss(model, tokens, target, rng, 0.5))
    assert got.tobytes() == want.tobytes() and state == want_state
    for name, g in grads.items():
        assert np.abs(g - want_grads[name]).max() <= 1e-12 * np.abs(want_grads[name]).max(), name


def test_one_mask_draw_is_t_draws_of_d():
    # a (T, d) ndarray is dropped with one rng.random((T, d)) draw
    x = np.random.default_rng(92).normal(size=(7, 5))
    block_rng, rows_rng = np.random.default_rng(93), np.random.default_rng(93)
    block = apply_dropout(x, 0.3, block_rng)
    rows = [apply_dropout(Tensor(v), 0.3, rows_rng).data for v in x]
    assert isinstance(block, np.ndarray) and block.tobytes() == np.stack(rows).tobytes()
    assert block_rng.bit_generator.state == rows_rng.bit_generator.state


def test_training_loss_records_no_leaf_but_the_parameters():
    # the pooled features' dropout mask belongs to its op: no leaf, no gradient
    model, _ = _classifier()
    with Tape() as tape:
        model.loss([2, 3, 4], 0, rng=np.random.default_rng(0), dropout=0.5, training=True)
    leaves = sorted(node.shape for node in tape.nodes if node.kind == "leaf")
    assert leaves == sorted(p.shape for p in model.named_parameters().values())


@pytest.mark.parametrize("kind, head, bi", _BOUNDARY, ids=_BOUNDARY_IDS)
def test_loss_records_the_same_ops_at_any_length(kind, head, bi):
    # no op or leaf per token: the embedding is off the tape, and no column,
    # stack, join per step or discarded final state is recorded
    model = _two_layer(kind, head, bi)

    def ops(steps):
        tokens = _TOKENS[:steps]
        with Tape() as tape:
            model.loss(tokens, _target(model, tokens), rng=np.random.default_rng(93),
                       dropout=0.5, training=True)
        return Counter(node.kind for node in tape.nodes)

    short, long = ops(5), ops(10)
    assert short == long
    assert not {"col", "stack", "concat", "scan_c"} & set(short)


@pytest.mark.parametrize("kind", ["lstm", "parallel"])
@pytest.mark.parametrize("head", ["softmax", "crf"])
@pytest.mark.parametrize("bi", [False, True], ids=["uni", "bi"])
def test_finished_model_tape_is_freed_without_the_cycle_collector(kind, head, bi):
    # a backward closure that held a tensor would hold its tape in a cycle
    model = _two_layer(kind, head, bi)
    tokens = _TOKENS[:6]
    gc.disable()
    try:
        with Tape() as tape:
            tape.backward(model.loss(tokens, _target(model, tokens), rng=np.random.default_rng(94),
                                     dropout=0.5, training=True))
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
    finally:
        gc.enable()
