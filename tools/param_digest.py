"""Print, per architecture: solved hidden size, count_params, and the SHA-256
of every trained parameter after 2 epochs.

Covers the 8 layer kinds as a 2-layer unidirectional softmax classifier and
a 2-layer bidirectional CRF tagger, plus parallel2 with layer_input wiring
(both heads), parallel with n=5 and the edge counts mixed (3, 0) and (0, 2),
gated 1 and shared 1 (input width 8, budget 4000).  Run it on two trees and
diff the output; identical lines mean bit-identical solved sizes, counts and
trained parameters:

    PYTHONPATH=<tree>/src python3 tools/param_digest.py
"""
import hashlib

import numpy as np

from nornet.budget import HeadSpec, LayerSpec, ModelConfig, count_params, solve_hidden_size
from nornet.data import CorpusSplits, Vocabulary, random_embeddings
from nornet.models import build_model
from nornet.training import TrainConfig, train

KINDS = ("simple", "gru", "lstm", "parallel", "parallel2", "mixed", "shared", "gated")
D, BUDGET = 8, 4000


def corpus(rng, n, classes, tagged):
    out = []
    for _ in range(n):
        toks = [int(t) for t in rng.integers(2, 12, size=int(rng.integers(3, 7)))]
        tgt = [t % classes for t in toks] if tagged else toks[0] % classes
        out.append((toks, tgt))
    return out


def digest(name, cfg):
    h = solve_hidden_size(cfg, BUDGET)
    cfg = cfg.with_hidden(h)
    vocab = Vocabulary(tokens=["<pad>", "<unk>"] + [f"w{i}" for i in range(10)])
    table = random_embeddings(vocab, D, np.random.default_rng(3))
    k = cfg.head.classes
    tagged = cfg.head.kind == "crf"
    names = (["O", "B-X", "B-Y"] if tagged else [f"c{i}" for i in range(k)])
    model = build_model(cfg, table, names, np.random.default_rng(7))
    rng = np.random.default_rng(11)
    data = CorpusSplits(train=corpus(rng, 12, k, tagged), dev=corpus(rng, 4, k, tagged))
    train(model, data, TrainConfig(lr=0.01, batch_size=5, max_epochs=2, patience=5, seed=2))
    sha = hashlib.sha256()
    for pname, p in sorted(model.named_parameters().items()):
        sha.update(pname.encode())
        sha.update(p.data.tobytes())
    print(f"{name:32s} h={h:4d} count={count_params(cfg):6d} {sha.hexdigest()}")


if __name__ == "__main__":
    for kind in KINDS:
        digest(f"{kind}/uni2/softmax", ModelConfig(D, (LayerSpec(kind),) * 2, HeadSpec("softmax", 4)))
        digest(f"{kind}/bi2/crf", ModelConfig(D, (LayerSpec(kind),) * 2, HeadSpec("crf", 3), True))
    digest("parallel2-layer_input/uni2", ModelConfig(
        D, (LayerSpec("parallel2", wiring="layer_input"),) * 2, HeadSpec("softmax", 4)))
    digest("parallel-n5/uni2", ModelConfig(D, (LayerSpec("parallel", n=5),) * 2, HeadSpec("softmax", 4)))
    digest("parallel2-layer_input/bi2/crf", ModelConfig(
        D, (LayerSpec("parallel2", wiring="layer_input"),) * 2, HeadSpec("crf", 3), True))
    for kind, n in (("mixed", (3, 0)), ("mixed", (0, 2)), ("gated", 1), ("shared", 1)):
        label = "-".join(str(c) for c in (n if isinstance(n, tuple) else (n,)))
        digest(f"{kind}-n{label}/uni2", ModelConfig(
            D, (LayerSpec(kind, n=n),) * 2, HeadSpec("softmax", 4)))
