"""Compare, per architecture, the solved hidden size, count_params and the
SHA-256 of every trained parameter after 2 epochs, between two source trees.

    python3 tools/param_digest.py PARENT_TREE CHANGE_TREE

Covers the 8 layer kinds as a 2-layer unidirectional softmax classifier and
a 2-layer bidirectional CRF tagger, plus parallel2 with layer_input wiring
(both heads), parallel with n=5 and the edge counts mixed (3, 0) and (0, 2),
gated 1 and shared 1 (input width 8, budget 4000).  Each tree runs in its
own process, with `<tree>/src` on the path and BLAS pinned to one thread.
One line per family gives the change tree's size, count and digest, marked
`same` when the parent tree printed the same line and `DIFFERS` (with the
parent's fields) otherwise.
The script exits 1 on any difference.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

KINDS = ("simple", "gru", "lstm", "parallel", "parallel2", "mixed", "shared", "gated")
D, BUDGET = 8, 4000


def corpus(rng, n, classes, tagged):
    out = []
    for _ in range(n):
        toks = [int(t) for t in rng.integers(2, 12, size=int(rng.integers(3, 7)))]
        tgt = [t % classes for t in toks] if tagged else toks[0] % classes
        out.append((toks, tgt))
    return out


def digest(name, cfg) -> str:
    from nornet.budget import count_params, solve_hidden_size
    from nornet.data import CorpusSplits, Vocabulary, random_embeddings
    from nornet.models import build_model
    from nornet.training import TrainConfig, train

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
    return f"{name:32s} h={h:4d} count={count_params(cfg):6d} {sha.hexdigest()}"


def digests():
    # budget re-exports LayerSpec, so trees from before it moved to nor run too
    from nornet.budget import HeadSpec, LayerSpec, ModelConfig

    for kind in KINDS:
        yield digest(f"{kind}/uni2/softmax", ModelConfig(D, (LayerSpec(kind),) * 2, HeadSpec("softmax", 4)))
        yield digest(f"{kind}/bi2/crf", ModelConfig(D, (LayerSpec(kind),) * 2, HeadSpec("crf", 3), True))
    yield digest("parallel2-layer_input/uni2", ModelConfig(
        D, (LayerSpec("parallel2", wiring="layer_input"),) * 2, HeadSpec("softmax", 4)))
    yield digest("parallel-n5/uni2", ModelConfig(D, (LayerSpec("parallel", n=5),) * 2, HeadSpec("softmax", 4)))
    yield digest("parallel2-layer_input/bi2/crf", ModelConfig(
        D, (LayerSpec("parallel2", wiring="layer_input"),) * 2, HeadSpec("crf", 3), True))
    for kind, n in (("mixed", (3, 0)), ("mixed", (0, 2)), ("gated", 1), ("shared", 1)):
        label = "-".join(str(c) for c in (n if isinstance(n, tuple) else (n,)))
        yield digest(f"{kind}-n{label}/uni2", ModelConfig(
            D, (LayerSpec(kind, n=n),) * 2, HeadSpec("softmax", 4)))


def run_tree(tree: Path) -> list[str]:
    # one BLAS thread, as perfbench runs: forward bits depend on the thread count
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, __file__, "--emit"], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return proc.stdout.splitlines()


def main(argv) -> int:
    if argv == ["--emit"]:
        for line in digests():
            print(line)
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (run_tree(Path(tree).resolve()) for tree in argv)
    if len(parent) != len(change):
        print(f"the trees print {len(parent)} and {len(change)} families")
        return 1
    for old, new in zip(parent, change):
        print(f"{new} same" if new == old else f"{new} DIFFERS from {old.split(None, 1)[1]}")
    return 0 if parent == change else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
