"""One workload run: set-up, training sessions, batch scoring, single predicts.

The untraced run measures the end-to-end metrics.  The traced run repeats
the same work once under the Tracer, checks that tracing left the
arithmetic alone, and reports per-layer metrics.  Every epoch, predict
call and correctness check is one operation in the Ledger.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nornet import budget, data, models, presets, training

import synth
from tracer import Tracer
from workloads import Workload

SETUP_SECONDS = 0.8             # each round repeats set-up this long; setup_s is the median
MIN_ROUNDS = 2                  # the determinism check compares at least two sessions
TAIL_SAMPLES = 10               # samples a reported percentile must leave beyond it
# a classifier's last-epoch loss may exceed that of a uniform guess, ln(classes),
# by this factor: near initialisation, dropout alone moves it by about 0.3%
CHANCE_LOSS_MARGIN = 1.01
PREDICT_QUANTILES = (50, 95)
# share of each round of the untraced run spent on each phase
TRAIN_SHARE, EVAL_SHARE, PREDICT_SHARE = 0.55, 0.15, 0.3
# share of --seconds the traced run spends on untraced reference sessions
TRACE_REFERENCE_SHARE = 0.4

END_TO_END_UNITS = {
    "train_tok_s": "tok/s", "eval_sent_s": "sent/s",
    "predict_ms_p50": "ms", "predict_ms_p95": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "final_train_loss": "nats",
}
# traced-run metrics that are not read from spans
TRACE_EXTRA_UNITS = {"dev_metric": "ratio", "fail_frac": "ratio", "trace.overhead_tok_s": "tok/s"}


# --- statistics ------------------------------------------------------------

def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile, refused unless TAIL_SAMPLES lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < TAIL_SAMPLES:
        raise ValueError(f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it, "
                         f"need {TAIL_SAMPLES}")
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """Fewest samples for which percentile(samples, q) is reportable."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < TAIL_SAMPLES:
        n += 1
    return n


# --- operation ledger ------------------------------------------------------

@dataclass
class Ledger:
    """Counts operations attempted and failed, and why each failure happened."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- set-up ----------------------------------------------------------------

@dataclass
class Setup:
    workload: Workload
    seed: int                   # preset train seed; model weights derive from it
    corpus: data.CorpusSplits
    vocab: data.Vocabulary
    names: list[str]
    table: np.ndarray
    config: object
    model: object               # built as part of set-up; each session trains a fresh copy

    def fresh_model(self):
        """A model with the same initial weights as every other session's."""
        return models.build_model(self.config, self.table, self.names, _model_rng(self.seed))


def _train_config(w: Workload) -> training.TrainConfig:
    return presets.train_config(w.task, max_epochs=w.epochs)


def _model_rng(seed: int):
    # the command line's derivation: weights from the train seed, stream 0x1
    return np.random.default_rng(np.random.SeedSequence([seed, 0x1]))


def set_up(w: Workload, paths: dict[str, Path]) -> Setup:
    """Load the corpus files, build the embedding table, size and build the model."""
    names = list(w.shape.names)
    if w.shape.tagging:
        first = data.load_conll(paths["train"], tag_names=names)
        load = lambda p: data.load_conll(p, vocab=first.vocab, tag_names=names)
    else:
        first = data.load_classification_corpus(paths["train"], w.shape.fmt, label_names=names)
        load = lambda p: data.load_classification_corpus(
            p, w.shape.fmt, vocab=first.vocab, label_names=names)
    corpus = data.CorpusSplits(train=first.examples(), dev=load(paths["dev"]).examples(),
                               test=load(paths["test"]).examples())
    seed = _train_config(w).seed
    config = presets.model_config(w.task, w.topology)
    table = data.random_embeddings(first.vocab, config.input_dim,
                                   np.random.default_rng(np.random.SeedSequence([seed, 0xE])))
    config = config.with_hidden(budget.solve_hidden_size(config, w.budget))
    model = models.build_model(config, table, names, _model_rng(seed))
    return Setup(w, seed, corpus, first.vocab, names, table, config, model)


# --- measured phases -------------------------------------------------------

@dataclass
class Session:
    """What one training session leaves behind, minus the model itself."""

    seconds: float
    epoch_seconds: list[float]
    epoch_tokens: int
    losses: list[float]         # train loss of each epoch
    dev_metric: float
    digest: str                 # sha256 over the final parameters, in name order

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    @property
    def tokens(self) -> int:
        return self.epoch_tokens * len(self.epoch_seconds)

    @property
    def epoch_tok_s(self) -> list[float]:
        return [self.epoch_tokens / e for e in self.epoch_seconds]


def train_session(s: Setup, ledger: Ledger):
    """One train() call on a fresh model; returns (Session, model) or None.

    Each epoch run is one operation.  train() ends every epoch with one dev
    evaluation through the model, so timestamps taken as those calls return
    split its wall time into epochs without reaching into the trainer.
    """
    model = s.fresh_model()
    evaluate, marks = model.evaluate, []

    def evaluate_and_mark(examples):
        metric = evaluate(examples)
        marks.append(time.perf_counter())
        return metric

    model.evaluate = evaluate_and_mark
    t0 = time.perf_counter()
    try:
        result = training.train(model, s.corpus, _train_config(s.workload))
    except training.NumericError as exc:
        ledger.record(False, f"epoch: {exc}")
        return None
    finally:
        del model.evaluate
    seconds = time.perf_counter() - t0
    for epoch, loss, _, _ in result.rows:
        ledger.record(math.isfinite(loss), f"epoch {epoch}: loss {loss!r}")
    digest = hashlib.sha256()
    for _, p in sorted(model.named_parameters().items()):
        digest.update(p.data.tobytes())
    session = Session(seconds=seconds,
                      epoch_seconds=[b - a for a, b in zip([t0] + marks, marks)],
                      epoch_tokens=sum(min(len(tokens), result.pad_length)
                                       for tokens, _ in s.corpus.train),
                      losses=[row[1] for row in result.rows], dev_metric=result.best_metric,
                      digest=digest.hexdigest())
    return session, model


def eval_passes(model, examples, budget_s: float) -> list[float]:
    """Batch scoring of the uncropped test split, in sentences/s per pass.

    Passes repeat while the next one fits in budget_s; there is at least one.
    """
    rates = []
    t0 = time.perf_counter()
    last = 0.0
    while not rates or time.perf_counter() - t0 + last <= budget_s:
        t = time.perf_counter()
        model.evaluate(examples)
        last = time.perf_counter() - t
        rates.append(len(examples) / last)
    return rates


def valid_prediction(pred, tokens, n_names: int, tagging: bool) -> bool:
    if tagging:
        return (isinstance(pred, list) and len(pred) == len(tokens)
                and all(isinstance(t, int) and 0 <= t < n_names for t in pred))
    return isinstance(pred, int) and 0 <= pred < n_names


def predict_latencies(model, examples, n_names: int, tagging: bool, ledger: Ledger,
                      budget_s: float) -> list[float]:
    """Single-sentence predict latency in ms, over whole passes of examples.

    Passes repeat while budget_s lasts; there is at least one.  Every call is
    an operation, failed if it raises or returns an invalid prediction.
    """
    samples: list[float] = []
    t0 = time.perf_counter()
    while True:
        for tokens, _ in examples:
            t = time.perf_counter()
            try:
                pred = model.predict(tokens)
            except Exception as exc:  # a crashing predict is a failed operation
                ledger.record(False, f"predict raised {exc!r}")
                continue
            samples.append((time.perf_counter() - t) * 1e3)
            ledger.record(valid_prediction(pred, tokens, n_names, tagging),
                          f"predict returned {pred!r} for {len(tokens)} tokens")
        if time.perf_counter() - t0 >= budget_s:
            return samples


def checkpoint_roundtrip(s: Setup, model, directory: Path) -> bool:
    """save -> load -> save through nornet's checkpoint format is byte-identical."""
    first, second = directory / "a.ckpt", directory / "b.ckpt"
    header = f"workload {s.workload.name}\nhidden {s.config.hidden}\n"
    models.save_checkpoint(first, model, header, s.vocab.tokens)
    ckpt = models.load_checkpoint(first)
    again = models.build_model(s.config, ckpt.arrays["embedding"], ckpt.names,
                               _model_rng(s.seed))
    again.load_state(ckpt.arrays)
    models.save_checkpoint(second, again, ckpt.config_text, ckpt.vocab_tokens)
    return first.read_bytes() == second.read_bytes()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the two kinds of run --------------------------------------------------

@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    ledger: Ledger
    notes: list[str]


def _timed_setups(w: Workload, paths) -> tuple[list[float], Setup]:
    """Set-up times, in s, of repeats for SETUP_SECONDS, and the last Setup."""
    times = []
    t0 = time.perf_counter()
    while not times or time.perf_counter() - t0 < SETUP_SECONDS:
        t = time.perf_counter()
        s = set_up(w, paths)
        times.append(time.perf_counter() - t)
    return times, s


def _session_checks(s: Setup, session: Session, model, ledger: Ledger,
                    workdir: Path) -> None:
    w = s.workload
    ledger.record(session.dev_metric >= w.floor,
                  f"dev metric {session.dev_metric:.4f} below floor {w.floor}")
    if len(session.losses) > 1:
        ledger.record(session.losses[-1] < session.losses[0],
                      f"train loss rose from {session.losses[0]!r} to {session.losses[-1]!r}")
    if not w.shape.tagging:
        chance = math.log(len(s.names))
        ledger.record(session.final_loss <= CHANCE_LOSS_MARGIN * chance,
                      f"train loss {session.final_loss!r} above chance, ln {len(s.names)}")
    ledger.record(checkpoint_roundtrip(s, model, workdir),
                  "checkpoint save -> load -> save differs")


def run_untraced(w: Workload, seed: int, seconds: float, workdir: Path) -> RunResult:
    """Rounds of (set-ups, train session, eval passes, predict passes) for `seconds`.

    Interleaving spreads every metric's samples over the whole run, so a
    slow spell of the machine does not land on one phase only.
    """
    ledger = Ledger()
    paths = synth.write(w.shape, seed, workdir / "corpus")
    need = max(min_samples(q) for q in PREDICT_QUANTILES)
    setup_times: list[float] = []
    sessions: list[Session] = []
    rates: list[float] = []
    lat: list[float] = []
    t0 = time.perf_counter()
    round_s = 0.0
    while (len(sessions) < MIN_ROUNDS or len(lat) < need
           or time.perf_counter() - t0 + round_s <= seconds):
        start = time.perf_counter()
        times, s = _timed_setups(w, paths)
        setup_times += times
        trained = train_session(s, ledger)
        if trained is None:
            return RunResult({}, ledger, ["training failed"])
        session, model = trained
        sessions.append(session)
        if len(sessions) == 1:
            _session_checks(s, session, model, ledger, workdir)
        slot = session.seconds / TRAIN_SHARE
        rates += eval_passes(model, s.corpus.test, EVAL_SHARE * slot)
        lat += predict_latencies(model, s.corpus.test, len(s.names), w.shape.tagging,
                                 ledger, PREDICT_SHARE * slot)
        del model
        round_s = time.perf_counter() - start

    first = sessions[0]
    ledger.record(all(x.digest == first.digest and x.final_loss == first.final_loss
                      for x in sessions),
                  "sessions from the same seed ended with different parameters")
    metrics = {
        "train_tok_s": statistics.median(r for x in sessions for r in x.epoch_tok_s),
        "eval_sent_s": statistics.median(rates),
        "predict_ms_p50": percentile(lat, 50),
        "predict_ms_p95": percentile(lat, 95),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "final_train_loss": first.final_loss,
    }
    notes = [f"setup_s is the median of {len(setup_times)} set-ups",
             f"rounds {len(sessions)}; each trains {w.epochs} epoch(s) of "
             f"{first.epoch_tokens} tokens; train_tok_s is the median of "
             f"{len(sessions) * w.epochs} epochs",
             f"eval passes {len(rates)} over {len(s.corpus.test)} sentences",
             f"predict samples {len(lat)}",
             f"dev metric {first.dev_metric:.4f} (floor {w.floor})"]
    return RunResult({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, ledger, notes)


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path) -> RunResult:
    """Untraced reference sessions, then the same work once under the Tracer."""
    ledger = Ledger()
    paths = synth.write(w.shape, seed, workdir / "corpus")
    s = set_up(w, paths)
    reference: list[Session] = []
    t0 = time.perf_counter()
    while not reference or \
            time.perf_counter() - t0 + reference[-1].seconds <= TRACE_REFERENCE_SHARE * seconds:
        trained = train_session(s, ledger)
        if trained is None:
            return RunResult({}, ledger, ["training failed"])
        reference.append(trained[0])

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        s = set_up(w, paths)
        trained = train_session(s, ledger)
        if trained is not None:
            traced, model = trained
            model.evaluate(s.corpus.test)
            predict_latencies(model, s.corpus.test, len(s.names), w.shape.tagging, ledger, 0.0)
        wall = time.perf_counter() - t0
    if trained is None:
        return RunResult({}, ledger, ["traced training failed"])

    ref = reference[0]
    ledger.record(traced.digest == ref.digest and traced.final_loss == ref.final_loss,
                  "traced run's final parameters or loss differ from the untraced run's")
    stats = tracer.summary()
    self_sum = sum(x.self_s for x in stats.values())
    # spans of one thread nest, so this holds by construction; it is not a check
    assert self_sum <= wall, f"self times add up to {self_sum:.6f} s, wall {wall:.6f} s"
    _session_checks(s, traced, model, ledger, workdir)

    untraced_rate = statistics.median(r for x in reference for r in x.epoch_tok_s)
    traced_rate = statistics.median(traced.epoch_tok_s)
    metrics = layer_metrics(stats, tracer.counters, traced.tokens)
    extra = {"dev_metric": traced.dev_metric,       # accuracy, or entity F1
             "fail_frac": ledger.fail_frac,
             "trace.overhead_tok_s": traced_rate - untraced_rate}
    metrics.update((k, (v, TRACE_EXTRA_UNITS[k])) for k, v in extra.items())
    top = sorted(stats.items(), key=lambda kv: -kv[1].self_s)[:6]
    notes = [f"traced wall {wall:.3f} s, self times sum {self_sum:.3f} s, "
             f"{len(tracer.start)} spans",
             "largest self times: " + ", ".join(f"{k} {v.self_s * 1e3:.1f} ms" for k, v in top),
             f"train_tok_s untraced {untraced_rate:.1f}, traced {traced_rate:.1f}"]
    notes += [f"absent: {a}" for a in tracer.absent]
    return RunResult(metrics, ledger, notes)


# (metric, span name, field, unit); field is calls, total_ms or self_ms
_LAYER_FIELDS = (
    ("tensor.matmul_calls", "tensor.matmul", "calls", "count"),
    ("tensor.matmul_ms", "tensor.matmul", "total_ms", "ms"),
    ("tensor.backward_ms", "tensor.backward", "total_ms", "ms"),
    ("tensor.backward_calls", "tensor.backward", "calls", "count"),
    ("cells.step_calls", "cells.step", "calls", "count"),
    ("cells.step_self_ms", "cells.step", "self_ms", "ms"),
    ("nor.step_calls", "nor.step", "calls", "count"),
    ("nor.step_self_ms", "nor.step", "self_ms", "ms"),
    ("nor.combine_calls", "nor.combine", "calls", "count"),
    ("nor.combine_self_ms", "nor.combine", "self_ms", "ms"),
    ("nor.unroll_self_ms", "nor.unroll", "self_ms", "ms"),
    ("heads.pool_ms", "heads.pool", "total_ms", "ms"),
    ("heads.softmax_ce_ms", "heads.softmax_ce", "total_ms", "ms"),
    ("heads.emission_ms", "heads.emission", "total_ms", "ms"),
    ("heads.crf_nll_self_ms", "heads.crf_nll", "self_ms", "ms"),
    ("heads.viterbi_ms", "heads.viterbi", "total_ms", "ms"),
    ("models.embed_ms", "models.embed", "total_ms", "ms"),
    ("models.build_ms", "models.build", "total_ms", "ms"),
    ("models.predict_self_ms", "models.predict", "self_ms", "ms"),
    ("training.adam_ms", "training.adam", "total_ms", "ms"),
    ("training.adam_calls", "training.adam", "calls", "count"),
    ("training.dropout_ms", "training.dropout", "total_ms", "ms"),
    ("training.train_self_ms", "training.train", "self_ms", "ms"),
    ("budget.solve_ms", "budget.solve", "total_ms", "ms"),
    ("budget.count_calls", "budget.count", "calls", "count"),
    ("data.load_ms", "data.load", "total_ms", "ms"),
    ("data.score_ms", "data.score", "total_ms", "ms"),
)


def layer_metrics(stats, counters, tokens_trained: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from span statistics; a layer with no spans reads 0."""
    out = {}
    for metric, span, fld, unit in _LAYER_FIELDS:
        st = stats.get(span)
        if st is None:
            value = 0
        elif fld == "calls":
            value = st.calls
        else:
            value = (st.total_s if fld == "total_ms" else st.self_s) * 1e3
        out[metric] = (value, unit)
    nodes = counters.get("backward_nodes", 0)
    out["tensor.matmul_madds"] = (counters.get("matmul_madds", 0), "madd_computed")
    out["tensor.nodes_per_token"] = (nodes / tokens_trained if tokens_trained else 0.0,
                                     "nodes/tok")
    out["tensor.grad_reach_frac"] = (counters.get("backward_grads", 0) / nodes if nodes else 0.0,
                                     "ratio")
    return out
