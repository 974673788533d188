"""Compare the batch losses and gradients that two source trees compute.

    python3 tools/grad_diff.py PARENT_TREE CHANGE_TREE

For the trec, conll and sst presets and every standard topology plus ma2,
each tree builds the preset model at hidden size 6 from fixed seeds, takes
one 6-sentence batch with the preset's dropout, and backpropagates the batch
loss.  Each tree runs in its own process, with `<tree>/src` on the path
and BLAS pinned to one thread.
One line per family says whether the two batch losses are bit-identical (if
not, by how much relative to the parent's) and gives the largest
max|dg| / max|g| over the family's parameters.  The script
exits 1 if a loss differs or a ratio exceeds 1e-12.
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TASKS = ("trec", "conll", "sst")
HIDDEN, SENTENCES, TOLERANCE = 6, 6, 1e-12


def families() -> list[tuple[str, str]]:
    from nornet.presets import STANDARD_TOPOLOGIES
    return [(task, topo) for task in TASKS for topo in STANDARD_TOPOLOGIES + ("ma2",)]


def batch_gradients(task: str, topo: str) -> dict[str, np.ndarray]:
    """The batch loss (key "loss") and every parameter's gradient."""
    from nornet import presets
    from nornet.data import Vocabulary, random_embeddings
    from nornet.models import build_model
    from nornet.tensor import Tape, add, scale

    cfg = presets.model_config(task, topo, HIDDEN)
    classes = cfg.head.classes
    vocab = Vocabulary(tokens=["<pad>", "<unk>"] + [f"w{i}" for i in range(20)])
    table = random_embeddings(vocab, cfg.input_dim, np.random.default_rng(3))
    model = build_model(cfg, table, [f"c{i}" for i in range(classes)], np.random.default_rng(7))
    rng = np.random.default_rng(11)
    batch = []
    for _ in range(SENTENCES):
        tokens = [int(t) for t in rng.integers(2, len(vocab), size=int(rng.integers(4, 10)))]
        target = ([int(t) for t in rng.integers(0, classes, size=len(tokens))]
                  if cfg.head.kind == "crf" else int(rng.integers(classes)))
        batch.append((tokens, target))
    dropout = presets.train_config(task).dropout
    with Tape() as tape:
        total = None
        for tokens, target in batch:
            one = model.loss(tokens, target, rng=rng, dropout=dropout, training=True)
            total = one if total is None else add(total, one)
        loss = scale(total, 1.0 / SENTENCES)
        tape.backward(loss)
    out = {name: tape.grad(p) for name, p in model.named_parameters().items()}
    out["loss"] = loss.data
    return out


def emit(path: str) -> None:
    np.savez(path, **{f"{task}|{topo}|{name}": value
                      for task, topo in families()
                      for name, value in batch_gradients(task, topo).items()})


def run_tree(tree: Path, path: Path) -> dict[str, np.ndarray]:
    # one BLAS thread, as perfbench runs: forward bits depend on the thread count
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    subprocess.run([sys.executable, __file__, "--emit", str(path)], env=env, check=True)
    with np.load(path) as arrays:
        return dict(arrays)


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_tree(Path(argv[0]).resolve(), Path(tmp) / "parent.npz")
        change = run_tree(Path(argv[1]).resolve(), Path(tmp) / "change.npz")
    if parent.keys() != change.keys():
        print(f"the trees differ in families or parameters: "
              f"{sorted(parent.keys() ^ change.keys())}")
        return 1
    ok = True
    for fam in dict.fromkeys(key.rsplit("|", 1)[0] for key in parent):
        loss, new_loss = parent[f"{fam}|loss"], change[f"{fam}|loss"]
        same_loss = loss.tobytes() == new_loss.tobytes()
        worst = 0.0
        for key in parent:
            if key.rsplit("|", 1)[0] != fam or key.endswith("|loss"):
                continue
            scale = np.abs(parent[key]).max(initial=0.0)
            diff = np.abs(change[key] - parent[key]).max(initial=0.0)
            worst = max(worst, diff / scale if scale else (np.inf if diff else 0.0))
        ok = ok and same_loss and worst <= TOLERANCE
        verdict = "bit-identical" if same_loss else f"DIFFERS by {abs(new_loss - loss) / abs(loss):.3e}"
        print(f"{fam.replace('|', '/'):12s} loss {verdict}  max|dg|/max|g| {worst:.3e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
