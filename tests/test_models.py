import re

import numpy as np
import pytest

from nornet.budget import HeadSpec, LayerSpec, ModelConfig
from nornet.data import Vocabulary, random_embeddings
from nornet.models import (SequenceClassifier, SequenceTagger, build_model,
                           load_checkpoint, save_checkpoint)
from nornet.tensor import Tape


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
