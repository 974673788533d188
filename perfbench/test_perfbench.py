"""Tests of the benchmark's own machinery.  Run: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import synth  # noqa: E402
from tracer import Tracer, self_times, summarise  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from nornet import data, tensor  # noqa: E402
from nornet.budget import HeadSpec, LayerSpec, ModelConfig  # noqa: E402
from nornet.models import build_model  # noqa: E402


# --- percentile rule -------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(v) for v in range(200)]
    assert measure.percentile(samples, 95) == 189.0     # rank 190 of 200, 10 beyond
    assert measure.percentile(samples[::-1], 50) == 99.0
    with pytest.raises(ValueError, match="9 beyond"):
        measure.percentile(samples[:199], 95)


def test_min_samples_is_the_smallest_reportable_count():
    for q in (50, 95, 99):
        n = measure.min_samples(q)
        measure.percentile(range(n), q)
        with pytest.raises(ValueError):
            measure.percentile(range(n - 1), q)
    assert measure.min_samples(95) == 200


# --- span arithmetic -------------------------------------------------------

def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 2.0, 3.0, 1),
        ("late", 3.5, 5.0, 1),      # runs past its parent: only 3.5..4 counts
        ("overlap", 6.0, 8.0, 0),   # inside b's interval: covered once
    ]
    assert self_times(spans) == [3.0, 1.5, 4.0, 1.0, 1.5, 2.0]
    stats = summarise(spans + [("c", 11.0, 12.0, -1)])
    assert (stats["c"].calls, stats["c"].total_s, stats["c"].self_s) == (2, 2.0, 2.0)
    assert stats["root"].self_s == 3.0 and stats["root"].total_s == 10.0


def test_tracer_records_nesting_with_parents():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans() == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    stats = tracer.summary()
    assert stats["outer"].self_s == 2.0 and stats["inner"].self_s == 1.0


def test_tracer_patches_every_importer_and_restores_them():
    from nornet import cells, heads, nor
    original = tensor.matmul
    with Tracer() as tracer:
        wrapped = tensor.matmul
        assert wrapped is not original
        assert cells.matmul is wrapped and nor.matmul is wrapped and heads.matmul is wrapped
        assert tracer.absent == []
    assert tensor.matmul is original and nor.matmul is original


def test_missing_function_is_reported_absent():
    tracer = Tracer()
    tracer.install([("tensor.gone", "nornet.tensor", "no_such_function"),
                    ("nor.gone", "nornet.nor", "NoSuchClass.step"),
                    ("tensor.matmul", "nornet.tensor", "matmul")])
    try:
        assert tracer.absent == ["tensor.gone (nornet.tensor.no_such_function)",
                                 "nor.gone (nornet.nor.NoSuchClass.step)"]
        assert tensor.matmul.__wrapped__ is not None
    finally:
        tracer.uninstall()


def _tiny_loss_and_grads():
    config = ModelConfig(input_dim=4, layers=(LayerSpec("shared"),),
                         head=HeadSpec("softmax", 3), hidden=3)
    vocab = data.Vocabulary()
    for t in "abcdef":
        vocab.add(t)
    table = data.random_embeddings(vocab, 4, np.random.default_rng(5))
    model = build_model(config, table, ["x", "y", "z"], np.random.default_rng(6))
    params = model.named_parameters()
    with tensor.Tape() as tape:
        loss = model.loss([2, 3, 4, 5], 1, rng=np.random.default_rng(7), dropout=0.5,
                          training=True)
        tape.backward(loss)
        grads = {k: tape.grad(p).tobytes() for k, p in params.items()}
    return float(loss.data), grads


def test_tracing_leaves_the_arithmetic_bit_identical():
    plain = _tiny_loss_and_grads()
    with Tracer() as tracer:
        traced = _tiny_loss_and_grads()
    assert traced == plain
    stats = tracer.summary()
    assert stats["tensor.matmul"].calls > 0 and stats["tensor.backward"].calls == 1
    assert tracer.counters["backward_grads"] <= tracer.counters["backward_nodes"]


# --- corpora ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_corpora(name, tmp_path):
    shape = WORKLOADS[name].shape
    a = synth.write(shape, 7, tmp_path / "a")
    b = synth.write(shape, 7, tmp_path / "b")
    c = synth.write(shape, 8, tmp_path / "c")
    for split in synth.SPLITS:
        assert a[split].read_bytes() == b[split].read_bytes()
        assert a[split].read_bytes() != c[split].read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpora_load_through_nornet_with_a_fixed_length_multiset(name, tmp_path):
    w = WORKLOADS[name]
    for seed in (1, 2):
        s = measure.set_up(w, synth.write(w.shape, seed, tmp_path / str(seed)))
        for split, size in zip(synth.SPLITS, w.shape.sizes):
            examples = getattr(s.corpus, split)
            assert len(examples) == size
            assert sorted(len(t) for t, _ in examples) == w.shape.lengths(split)
        targets = [t for _, target in s.corpus.train
                   for t in (target if w.shape.tagging else [target])]
        assert set(targets) == set(range(len(w.shape.names)))
        assert len(s.vocab) <= w.shape.vocab_size + 2


# --- operation counting ----------------------------------------------------

def test_forced_failures_count_in_fail_frac():
    ledger = measure.Ledger()
    ledger.record(True, "fine")
    assert ledger.record(False, "forced") is False
    assert (ledger.attempted, ledger.failed, ledger.fail_frac) == (2, 1, 0.5)
    assert ledger.failures == ["forced"]


class _BrokenClassifier:
    """Predicts a class index one past the last, or raises on long input."""

    def predict(self, tokens):
        if len(tokens) > 3:
            raise RuntimeError("boom")
        return 3


def test_invalid_or_crashing_predictions_are_failed_operations():
    ledger = measure.Ledger()
    examples = [([1, 2], 0), ([1, 2, 3, 4], 1)]
    lat = measure.predict_latencies(_BrokenClassifier(), examples, 3, False, ledger, 0.0)
    assert len(lat) == 1
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert measure.valid_prediction([0, 8], [5, 6], 9, True)
    assert not measure.valid_prediction([0], [5, 6], 9, True)
    assert not measure.valid_prediction(-1, [5], 3, False)


# --- the benchmark's declared metrics --------------------------------------

def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    emitted = {k: unit for k, (_, unit) in measure.layer_metrics({}, {}, 1).items()}
    emitted.update(measure.TRACE_EXTRA_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
