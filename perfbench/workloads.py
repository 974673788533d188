"""The benchmark's workloads: a corpus shape, a preset model and a session size.

Each workload trains one preset architecture at its preset budget and
training settings (dropout on) on a seeded synthetic corpus.  The three
together put the load on different layers:

  trec-ma     short sentences, `ma` composite layer: many small matmuls in
              the composite step and the combiner, softmax head, no CRF.
  conll-irnn  bidirectional `irnn` with a CRF head: the widest matmuls
              (197x300), CRF likelihood and Viterbi, no combiner.
  sst-ss      long sentences through two `ss` layers: the deepest tape,
              the tier1_all concat wiring and the largest memory.

A session is one `train()` call of `epochs` epochs over the train split.
Its size is fixed, so its losses and dev metric do not depend on the speed
of the code, and small enough that at least two sessions fit in one run on
the seed commit.  Every train split holds at least two full preset batches
of 20 sentences, so the tape and the minibatch are as large as in real
training.

The dev floors are what every seed run meets.  A dozen optimizer steps
teach trec-ma its classes, so its floor is well above chance.  conll-irnn's
first Adam step at the preset learning rate blows up the
identity-initialised recurrence, so its entity F1 may still be 0 after
three epochs; what can fail there is the train loss, which must fall from
the first epoch to the last.  sst-ss (lr 2e-4) stays at chance within one
epoch, and its dev accuracy on 10 sentences has read 0.1 on some seeds, so
its floor is 0; what can fail there is the train loss, which must stay at
or below that of a uniform guess, as for every classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from synth import ENTITY_TYPES, SST_LABELS, TREC_LABELS, CorpusShape


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                   # nornet preset task
    topology: str               # nornet preset topology alias
    budget: int                 # parameter budget the hidden size is solved for
    shape: CorpusShape
    epochs: int                 # epochs per training session; with 2 or more the loss must fall
    floor: float                # lowest acceptable dev metric after a session


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="trec-ma", task="trec", topology="ma", budget=100_000,
            shape=CorpusShape("trec_colon", TREC_LABELS, 5, 15, (240, 20, 40), signal=0.4),
            epochs=1, floor=0.6,
        ),
        Workload(
            name="conll-irnn", task="conll", topology="irnn", budget=200_000,
            shape=CorpusShape("conll", ENTITY_TYPES, 8, 30, (40, 10, 20),
                              pool=4, entity_every=2),
            epochs=3, floor=0.0,
        ),
        Workload(
            name="sst-ss", task="sst", topology="ss", budget=200_000,
            shape=CorpusShape("tsv_label_text", SST_LABELS, 15, 40, (40, 10, 10)),
            epochs=1, floor=0.0,
        ),
    )
}
