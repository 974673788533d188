"""Release gate: every shipping claim of the library, one verdict line each.

Each test prints a single [accept] PASS/FAIL line with its measured
numbers, then asserts at the stated tolerance.  A failing gate prints the
offending values instead of suppressing them; nothing here is allowed to
loosen a tolerance to go green.
"""

import dataclasses
import itertools
import math
import time

import numpy as np

from nornet.budget import HeadSpec, LayerSpec, ModelConfig, count_params, \
    solve_hidden_size
from nornet.cells import cell_step, new_cell_params, zero_state
from nornet.cli import main
from nornet.data import CorpusSplits, Vocabulary, load_classification_corpus, \
    random_embeddings
from nornet.heads import crf_neg_log_likelihood, crf_viterbi_decode, \
    new_crf_head, new_softmax_head, softmax_cross_entropy
from nornet.models import build_model
from nornet.nor import NorLayer, unroll
from nornet.presets import REFERENCE_SIZES, TOPOLOGY_ALIASES, model_config
from nornet.tensor import Tensor, concat, grad_check, reduce_sum
from nornet.training import TrainConfig, train

FAMILIES = ("irnn", "gru", "lstm", "ma", "ma2", "ms", "ss", "gate")


def _say(capsys, line: str) -> None:
    # verdict lines must be visible even under output capture
    with capsys.disabled():
        print(line)


# --- 1: gradients ----------------------------------------------------------

def _unrolled_loss(run, params, input_dim: int, steps: int, rng):
    """run maps the input sequence to the outputs the loss sums."""
    # moderate random weights keep the loss away from relu/max kinks,
    # where finite differences legitimately disagree with the tape
    for p in params.values():
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    xs = [Tensor(rng.normal(size=input_dim)) for _ in range(steps)]
    return lambda: reduce_sum(concat(run(xs)))


def _unrolled(layer):
    return lambda xs: unroll(layer, xs)[0]


def _stepped_cell(cell):
    """Outputs of one cell stepped from its zero state."""
    def run(xs):
        st, outs = zero_state(cell.kind, cell.hidden), []
        for x in xs:
            st = cell_step(x, st, cell)
            outs.append(st.h)
        return outs
    return run


def _gradient_scenarios(rng):
    d, h, steps = 5, 4, 3
    for kind in ("simple", "gate", "gru", "lstm"):
        if kind == "gate":
            # no layer kind is a lone sigmoid gate cell: step it directly
            cell = new_cell_params(kind, d, h, rng)
            run, params = _stepped_cell(cell), cell.named("cell")
        else:
            layer = NorLayer(LayerSpec(kind), d, h, rng)
            run, params = _unrolled(layer), layer.named_parameters("cell")
        yield f"cell/{kind}", _unrolled_loss(run, params, d, steps, rng), params
    for kind in ("parallel", "parallel2", "mixed", "shared", "gated"):
        layer = NorLayer(LayerSpec(kind), d, h, rng)
        params = layer.named_parameters("layer")
        yield f"layer/{kind}", _unrolled_loss(_unrolled(layer), params, d, steps, rng), params

    head = new_softmax_head(6, 3, rng)
    x = Tensor(rng.normal(size=6))
    yield "head/softmax", (lambda: softmax_cross_entropy(head.logits(x), 1)), head.named()

    crf = new_crf_head(5, 3, rng)
    crf.transitions.data[...] = rng.normal(size=crf.transitions.shape)
    feats = [Tensor(rng.normal(size=5)) for _ in range(steps)]
    tags = [int(rng.integers(crf.tags)) for _ in range(steps)]

    def crf_loss():
        return crf_neg_log_likelihood([crf.emission(f) for f in feats], tags, crf)

    yield "head/crf", crf_loss, crf.named()


def test_01_gradient_suite_covers_every_architecture(capsys):
    t0 = time.perf_counter()
    # seed picked so no relu preactivation sits within one finite-difference
    # step of 0; at a kink the two estimates legitimately disagree
    rng = np.random.default_rng(102)
    failures = []
    worst = 0.0
    count = 0
    for name, loss, params in _gradient_scenarios(rng):
        report = grad_check(loss, params, step=1e-5, tolerance=1e-4)
        worst = max(worst, report.max_error)
        count += 1
        if not report.passed:
            failures.append(f"{name}: max rel err {report.max_error:.3e}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    _say(capsys, f"[accept] 1 gradient suite, {count} scenarios, tol 1e-4: "
                 f"{'PASS' if ok else 'FAIL'} "
                 f"(worst rel err {worst:.3e}, {dt:.1f} s)")
    assert dt < 60.0, f"gradient suite took {dt:.1f} s"
    assert not failures, "; ".join(failures)


# --- 2 and 3: sizing grid --------------------------------------------------

def test_02_baseline_sizing_grid_within_one_unit(capsys):
    t0 = time.perf_counter()
    mism = []
    cells = 0
    for (task, topo, budget), want in sorted(REFERENCE_SIZES.items()):
        if topo not in ("irnn", "gru", "lstm"):
            continue
        cells += 1
        got = solve_hidden_size(model_config(task, topo), budget)
        if abs(got - want) > 1:
            mism.append(f"{task}/{topo}/{budget}: solved {got}, reference {want}")
    dt = time.perf_counter() - t0
    ok = not mism and dt < 1.0
    detail = "; ".join(mism) if mism else "all within +-1"
    _say(capsys, f"[accept] 2 baseline sizing, {cells} cells, tol +-1: "
                 f"{'PASS' if ok else 'FAIL'} ({detail}, {dt:.2f} s)")
    assert dt < 1.0, f"sizing grid took {dt:.2f} s"
    assert not mism, "; ".join(mism)


def test_03_composite_sizing_row_within_two_units(capsys):
    row = {topo: REFERENCE_SIZES[("sst", topo, 200_000)]
           for topo in ("ma", "ms", "ss", "gate")}
    residuals = []
    beyond = []
    for topo, want in row.items():
        got = solve_hidden_size(model_config("sst", topo), 200_000)
        if got != want:
            residuals.append(f"{topo}: solved {got}, reference {want}")
        if abs(got - want) > 2:
            beyond.append(f"{topo}: solved {got}, reference {want}")
    detail = "; ".join(residuals) if residuals else "exact match 89/66/61/61"
    _say(capsys, f"[accept] 3 composite sizing row, tol +-2: "
                 f"{'PASS' if not beyond else 'FAIL'} ({detail})")
    assert not beyond, "; ".join(beyond)


# --- 4: CRF vs enumeration -------------------------------------------------

def _enumerate_paths(em, tr, k: int, start: int, stop: int):
    T = em.shape[0]
    scores = {}
    for path in itertools.product(range(k), repeat=T):
        s = tr[start, path[0]] + em[0, path[0]]
        for t in range(1, T):
            s += tr[path[t - 1], path[t]] + em[t, path[t]]
        s += tr[path[-1], stop]
        scores[path] = s
    return scores


def test_04_crf_matches_bruteforce_enumeration(capsys):
    rng = np.random.default_rng(104)
    trials = 0
    worst_nll = 0.0
    worst_vit = 0.0
    argmax_misses = []
    for k, T in itertools.product(range(1, 5), range(1, 5)):
        for _ in range(7):
            trials += 1
            head = new_crf_head(3, k, rng)
            head.proj_b.data[...] = rng.normal(size=k)
            head.transitions.data[...] = rng.normal(size=(k + 2, k + 2))
            feats = [Tensor(rng.normal(size=3)) for _ in range(T)]
            tags = [int(rng.integers(k)) for _ in range(T)]
            em = [head.emission(f) for f in feats]

            scores = _enumerate_paths(np.array([e.data for e in em]), head.transitions.data, k,
                                      head.start, head.stop)
            vals = np.array(list(scores.values()))
            m = vals.max()
            log_z = m + math.log(np.exp(vals - m).sum())

            nll = crf_neg_log_likelihood(em, tags, head).item()
            worst_nll = max(worst_nll, abs(nll - (log_z - scores[tuple(tags)])))

            path, score = crf_viterbi_decode(em, head)
            best_path = max(scores, key=scores.get)
            worst_vit = max(worst_vit, abs(score - scores[best_path]))
            if tuple(path) != best_path:
                argmax_misses.append(f"K={k} T={T}: {path} vs {list(best_path)}")
    ok = worst_nll < 1e-10 and worst_vit < 1e-10 and not argmax_misses
    _say(capsys, f"[accept] 4 crf oracle, {trials} trials K<=4 T<=4, tol 1e-10: "
                 f"{'PASS' if ok else 'FAIL'} "
                 f"(worst nll diff {worst_nll:.2e}, worst viterbi diff {worst_vit:.2e}, "
                 f"{len(argmax_misses)} argmax misses)")
    assert trials >= 100
    assert worst_nll < 1e-10
    assert worst_vit < 1e-10
    assert not argmax_misses, "; ".join(argmax_misses)


# --- 5: degenerate collapses -----------------------------------------------

def _run_bits(layer, xs):
    outs, _ = unroll(layer, [Tensor(x) for x in xs])
    return b"".join(o.data.tobytes() for o in outs)


def _single_subnet_collapse() -> bool:
    rng = np.random.default_rng(105)
    layer = NorLayer(LayerSpec("parallel", 1), 4, 3, rng)
    layer.w_mlp.data[...] = np.eye(3)
    layer.b_mlp.data[...] = 0.0
    cell = new_cell_params("simple", 4, 3, np.random.default_rng(0))
    src = layer.cells[0][0]
    for part in ("w", "u", "b"):
        getattr(cell, part)["h"].data[...] = getattr(src, part)["h"].data

    xs = np.random.default_rng(1).normal(size=(5, 4))
    outs, _ = unroll(layer, [Tensor(x) for x in xs])
    st = zero_state("simple", 3)
    for t, x in enumerate(xs):
        st = cell_step(Tensor(x), st, cell)
        if outs[t].data.tobytes() != st.h.data.tobytes():
            return False
    return True


def _no_two_tier_collapse() -> bool:
    rng = np.random.default_rng(106)
    ma = NorLayer(LayerSpec("parallel", 2), 4, 3, rng)
    ms = NorLayer(LayerSpec("mixed", (2, 0)), 4, 3, np.random.default_rng(0))
    src = ma.named_parameters()
    for name, p in ms.named_parameters().items():
        p.data[...] = src[name].data
    xs = np.random.default_rng(2).normal(size=(5, 4))
    return _run_bits(ma, xs) == _run_bits(ms, xs)


def _block_diagonal_collapse() -> bool:
    rng = np.random.default_rng(107)
    h, n, d = 3, 2, 4
    ma2 = NorLayer(LayerSpec("parallel2", n), d, h, rng)
    ss = NorLayer(LayerSpec("shared", n), d, h, np.random.default_rng(0))
    for i in range(n):
        for part in ("w", "u", "b"):
            getattr(ss.cells[i][0], part)["h"].data[...] = \
                getattr(ma2.cells[i][0], part)["h"].data
        ss.cells[i][1].u["h"].data[...] = ma2.cells[i][1].u["h"].data
        ss.cells[i][1].b["h"].data[...] = ma2.cells[i][1].b["h"].data
        wide = np.zeros((h, n * h))
        wide[:, i * h:(i + 1) * h] = ma2.cells[i][1].w["h"].data
        ss.cells[i][1].w["h"].data[...] = wide
    ss.w_mlp.data[...] = ma2.w_mlp.data
    ss.b_mlp.data[...] = ma2.b_mlp.data
    xs = np.random.default_rng(3).normal(size=(5, d))
    return _run_bits(ma2, xs) == _run_bits(ss, xs)


def test_05_degenerate_collapses_are_bit_identical(capsys):
    results = {
        "single-subnet==simple-rnn": _single_subnet_collapse(),
        "no-two-tier==parallel": _no_two_tier_collapse(),
        "block-diagonal==two-tier-parallel": _block_diagonal_collapse(),
    }
    bad = [name for name, ok in results.items() if not ok]
    _say(capsys, f"[accept] 5 degenerate collapses, bitwise over T=5: "
                 f"{'PASS' if not bad else 'FAIL'} "
                 f"({'all 3 identical' if not bad else ', '.join(bad)})")
    assert not bad, f"collapses differ: {bad}"


# --- 6: overfit sanity -----------------------------------------------------

def _synthetic_classification(rng, n: int = 64):
    """Two classes with disjoint word pools, trivially separable."""
    vocab = Vocabulary()
    pools = ([vocab.add(f"a{i}") for i in range(10)],
             [vocab.add(f"b{i}") for i in range(10)])
    examples = []
    for i in range(n):
        label = i % 2
        length = int(rng.integers(5, 9))
        examples.append(([int(rng.choice(pools[label])) for _ in range(length)],
                         label))
    return vocab, examples


def test_06_every_family_overfits_small_synthetic_task(capsys):
    t0 = time.perf_counter()
    outcomes = []
    failures = []
    for fam in FAMILIES:
        rng = np.random.default_rng(601)
        vocab, examples = _synthetic_classification(rng)
        template = ModelConfig(input_dim=8,
                               layers=(LayerSpec(kind=TOPOLOGY_ALIASES[fam]),),
                               head=HeadSpec("softmax", 2),
                               bidirectional=False, hidden=1)
        h = solve_hidden_size(template, 20_000)
        config = dataclasses.replace(template, hidden=h)
        model = build_model(config, random_embeddings(vocab, 8, rng, scale=0.5),
                            ["even", "odd"], rng)
        settings = TrainConfig(lr=0.01, batch_size=8, max_epochs=200,
                               dropout=0.0, patience=200, lr_decay=1.0,
                               seed=601, target_metric=1.0)
        result = train(model, CorpusSplits(train=examples, dev=examples), settings)
        acc = model.evaluate(examples)
        outcomes.append(f"{fam}:{len(result.rows)}ep")
        if acc < 1.0:
            failures.append(f"{fam}: {acc:.3f} after {len(result.rows)} epochs "
                            f"({count_params(config)} params)")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 300.0
    _say(capsys, f"[accept] 6 overfit sanity, {len(FAMILIES)} families ~20k params, "
                 f"64 samples, <=200 epochs: {'PASS' if ok else 'FAIL'} "
                 f"({' '.join(outcomes)}, {dt:.1f} s)")
    assert dt < 300.0, f"overfit suite took {dt:.1f} s"
    assert not failures, "; ".join(failures)


# --- 7: identity init ------------------------------------------------------

def test_07_identity_recurrence_init_is_exact(capsys):
    bad = []
    for h in (3, 7, 32):
        cell = new_cell_params("simple", 5, h, np.random.default_rng(h))
        if cell.u["h"].data.tobytes() != np.eye(h).tobytes():
            bad.append(f"h={h}: recurrent matrix not identity")
        if cell.b["h"].data.tobytes() != np.zeros(h).tobytes():
            bad.append(f"h={h}: bias not zero")
    _say(capsys, f"[accept] 7 identity-recurrence init, bit-level: "
                 f"{'PASS' if not bad else 'FAIL'} "
                 f"({'exact at h=3,7,32' if not bad else '; '.join(bad)})")
    assert not bad, "; ".join(bad)


# --- 8: determinism --------------------------------------------------------

def _write_tiny_workspace(tmp_path):
    rng = np.random.default_rng(90)
    labels = ("AA", "BB")
    words = {"AA": ["red", "rose", "ruby"], "BB": ["blue", "lake", "sky"]}
    lines = []
    for i in range(16):
        lab = labels[i % 2]
        toks = [words[lab][int(rng.integers(3))] for _ in range(4)]
        lines.append(f"{lab}:x " + " ".join(toks))
    corpus = tmp_path / "train.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(
        "[model]\ntask = trec\ntopology = ma\nhidden = 5\nclasses = 2\n"
        "[train]\nseed = 3\nmax_epochs = 3\nbatch_size = 4\n"
        f"[data]\nformat = trec_colon\ntrain = {corpus}\nembedding_dim = 8\n",
        encoding="utf-8")
    return config


def test_08_train_command_is_bit_deterministic(capsys, tmp_path):
    config = _write_tiny_workspace(tmp_path)
    a, b = tmp_path / "out-a", tmp_path / "out-b"
    assert main(["train", "--config", str(config), "--out", str(a)]) == 0
    assert main(["train", "--config", str(config), "--out", str(b)]) == 0
    logs_equal = (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    ckpt_equal = (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
    _say(capsys, f"[accept] 8 determinism, two identical train runs: "
                 f"{'PASS' if logs_equal and ckpt_equal else 'FAIL'} "
                 f"(metric logs {'identical' if logs_equal else 'DIFFER'}, "
                 f"checkpoints {'identical' if ckpt_equal else 'DIFFER'})")
    assert logs_equal, "metric logs differ between identical runs"
    assert ckpt_equal, "checkpoints differ between identical runs"


# --- 9: question-classification smoke --------------------------------------

def test_09_question_classifier_smoke_overfits_subset(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    classes = ["ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM"]
    pools = {c: [f"{c.lower()}{j}" for j in range(12)] for c in classes}
    lines = []
    for i in range(500):
        c = classes[i % 6]
        length = int(rng.integers(5, 10))
        toks = [pools[c][int(rng.integers(12))] for _ in range(length)]
        lines.append(f"{c}:x " + " ".join(toks))
    path = tmp_path / "subset.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    corpus = load_classification_corpus(path, "trec_colon", label_names=classes)
    config = dataclasses.replace(model_config("trec", "ma"),
                                 hidden=solve_hidden_size(model_config("trec", "ma"),
                                                          100_000))
    model = build_model(config, random_embeddings(corpus.vocab, 300, rng, scale=0.5),
                        classes, rng)
    # overfit configuration: preset lr, dropout off, run all five epochs
    settings = TrainConfig(lr=0.0005, batch_size=20, max_epochs=5,
                           dropout=0.0, patience=5, lr_decay=1.0, seed=109)
    examples = corpus.examples()
    result = train(model, CorpusSplits(train=examples, dev=examples), settings)
    acc = model.evaluate(examples)
    dt = time.perf_counter() - t0
    ok = acc >= 0.90 and dt < 600.0 and len(result.rows) == 5
    _say(capsys, f"[accept] 9 question-type smoke, h={config.hidden} at 100k, "
                 f"500 sentences, 5 epochs: {'PASS' if ok else 'FAIL'} "
                 f"(accuracy {acc:.3f}, {dt:.1f} s)")
    assert len(result.rows) == 5, f"ran {len(result.rows)} epochs, wanted 5"
    assert dt < 600.0, f"smoke run took {dt:.1f} s"
    assert acc >= 0.90, f"train-subset accuracy {acc:.3f} below 0.90"
