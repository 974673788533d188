"""Outside-in tracing of nornet: wrappers around each layer's public functions.

A Tracer swaps every traced function for a wrapper that records one span
(name, start, end, parent) per call.  The wrapper is installed in every
loaded nornet module that holds the function under some name, so a call
made through `from .tensor import matmul` in `nor` is traced exactly like a
call into `tensor` itself.  Spans are kept in flat in-memory arrays and
summarised once the traced run has ended; nothing is written while it
runs.  The wrappers only read arguments and results, so the arithmetic of
a traced run is the arithmetic of an untraced one.

Functions that a later version of nornet renames or deletes are reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

# (span name, module, attribute); "Class.method" patches the class itself
TARGETS = (
    ("tensor.matmul", "nornet.tensor", "matmul"),
    ("tensor.backward", "nornet.tensor", "Tape.backward"),
    ("cells.step", "nornet.cells", "cell_step"),
    ("nor.step", "nornet.nor", "NorLayer.step"),
    ("nor.combine", "nornet.nor", "component_o_combine"),
    ("nor.unroll", "nornet.nor", "unroll"),
    ("nor.bidirectional", "nornet.nor", "bidirectional_wrap"),
    ("heads.pool", "nornet.heads", "max_pool_over_time"),
    ("heads.logits", "nornet.heads", "SoftmaxHeadParams.logits"),
    ("heads.softmax_ce", "nornet.heads", "softmax_cross_entropy"),
    ("heads.emission", "nornet.heads", "CrfParams.emission"),
    ("heads.crf_nll", "nornet.heads", "crf_neg_log_likelihood"),
    ("heads.viterbi", "nornet.heads", "crf_viterbi_decode"),
    ("models.embed", "nornet.models", "_ModelBase._embed"),
    ("models.build", "nornet.models", "build_model"),
    ("models.loss", "nornet.models", "SequenceClassifier.loss"),
    ("models.loss", "nornet.models", "SequenceTagger.loss"),
    ("models.predict", "nornet.models", "SequenceClassifier.predict"),
    ("models.predict", "nornet.models", "SequenceTagger.predict"),
    ("models.evaluate", "nornet.models", "SequenceClassifier.evaluate"),
    ("models.evaluate", "nornet.models", "SequenceTagger.evaluate"),
    ("models.save", "nornet.models", "save_checkpoint"),
    ("models.load", "nornet.models", "load_checkpoint"),
    ("training.adam", "nornet.training", "adam_step"),
    ("training.dropout", "nornet.training", "apply_dropout"),
    ("training.train", "nornet.training", "train"),
    ("budget.solve", "nornet.budget", "solve_hidden_size"),
    ("budget.count", "nornet.budget", "count_params"),
    ("data.load", "nornet.data", "load_classification_corpus"),
    ("data.load", "nornet.data", "load_conll"),
    ("data.embeddings", "nornet.data", "random_embeddings"),
    ("data.score", "nornet.data", "accuracy"),
    ("data.score", "nornet.data", "entity_f1"),
)


def _matmul_madds(args, result) -> int:
    """Multiply-adds of one matmul, computed from the operand shapes.

    Forward is m*k*n.  A product recorded on a tape (its result carries a
    node id) is later differentiated with two more products of the same
    size, one per operand.
    """
    a, b = args[0].shape, args[1].shape
    m = a[0] if len(a) == 2 else 1
    k = a[-1]
    n = b[1] if len(b) == 2 else 1
    taped = getattr(result, "node_id", None) is not None
    return m * k * n * (3 if taped else 1)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records nested spans from wrapped functions on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        after = {"tensor.matmul": self._count_madds,
                 "tensor.backward": self._count_tape}.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_madds(self, args, result) -> None:
        self.counters["matmul_madds"] += _matmul_madds(args, result)

    def _count_tape(self, args, result) -> None:
        tape = args[0]
        self.counters["backward_nodes"] += len(getattr(tape, "nodes", ()))
        self.counters["backward_grads"] += len(getattr(tape, "gradients", ()))

    # --- installing ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; note the ones that do not."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if (n == "nornet" or n.startswith("nornet.")) and m is not None]
        for name, module_name, attr in targets:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(fn_name) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{name} ({module_name}.{attr})")
                continue
            wrapper = self.wrap(name, fn)
            if owner_name:
                self._swap(owner, fn_name, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._swap(mod, key, wrapper)

    def _swap(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # --- summarising -----------------------------------------------------

    def spans(self):
        """(name, start, end, parent index) per span, in call order."""
        return [(self.names[n], s, e, p)
                for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)]

    def summary(self) -> dict[str, LayerStats]:
        return summarise(self.spans())


def self_times(spans) -> list[float]:
    """Span duration minus the part of its interval its children cover.

    spans is a sequence of (name, start, end, parent index); a child's
    interval is clipped to its parent's, and overlapping children count
    once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        at = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, at), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                at = hi
        out.append((end - start) - covered)
    return out


def summarise(spans) -> dict[str, LayerStats]:
    """Calls, total and self seconds per span name."""
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        s = stats[name]
        s.calls += 1
        s.total_s += end - start
        s.self_s += own
    return dict(stats)
