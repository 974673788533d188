import numpy as np
import pytest

from nornet.budget import (BudgetError, HeadSpec, LayerSpec, ModelConfig,
                           count_params, emit_sizing_table, solve_hidden_size)
from nornet.data import Vocabulary, random_embeddings
from nornet.models import build_model
from nornet.nor import LAYER_KINDS
from nornet.presets import (REFERENCE_SIZES, STANDARD_TOPOLOGIES, TASKS,
                            model_config)


def _uni(kind, d=10, classes=4, n_layers=1, head="softmax", bi=False, hidden=5):
    return ModelConfig(input_dim=d, layers=(LayerSpec(kind=kind),) * n_layers,
                       head=HeadSpec(head, classes), bidirectional=bi, hidden=hidden)


def test_single_relu_layer_closed_form():
    # one simple layer + softmax: dh + h^2 + h weights/bias, then Kh + K
    cfg = _uni("simple", d=4, classes=2, hidden=None)
    for h in (1, 3, 10):
        assert count_params(cfg, h) == 4 * h + h * h + h + 2 * h + 2


def test_stacked_classifier_closed_form():
    # two stacked simple layers, 5-way head: 3h^2 + 307h + 5 at input 300
    cfg = model_config("sst", "irnn")
    for h in (1, 50, 212):
        assert count_params(cfg, h) == 3 * h * h + 307 * h + 5
    assert count_params(cfg, 212) == 199_921


def test_single_layer_classifier_closed_form():
    # one simple layer, 6-way head: h^2 + 307h + 6
    cfg = model_config("trec", "irnn")
    assert count_params(cfg, 198) == 198 ** 2 + 307 * 198 + 6 == 99_996


def test_bidirectional_tagger_closed_form():
    # both directions counted, crf head sees 2h features plus an
    # 11 x 11 transition table over 9 tags + start/stop
    cfg = model_config("conll", "irnn")
    h = 197
    assert count_params(cfg, h) == 2 * (300 * h + h * h + h) + 9 * 2 * h + 9 + 11 ** 2
    assert count_params(cfg, 197) == 199_888


def test_gated_layer_counts_pairs():
    # 3 gate pairs: 6 cells of (dh + h^2 + h), combiner sees 3 blocks
    cfg = _uni("gated", d=10, classes=4, hidden=None)
    h = 5
    cells = 6 * (10 * h + h * h + h)
    combiner = h * (3 * h) + h
    head = 4 * h + 4
    assert count_params(cfg, h) == cells + combiner + head


def test_count_matches_instantiated_model_everywhere():
    rng = np.random.default_rng(60)
    vocab = Vocabulary(tokens=["<pad>", "<unk>", "a", "b"])
    kinds = ["simple", "gru", "lstm", "parallel", "parallel2",
             "mixed", "shared", "gated"]
    cases = []
    for kind in kinds:
        cases.append(_uni(kind, hidden=4))
        cases.append(_uni(kind, head="crf", bi=True, hidden=3))
    cases.append(_uni("parallel", n_layers=2, hidden=4))
    cases.append(_uni("mixed", n_layers=2, head="crf", bi=True, hidden=3))
    for spec in (LayerSpec("parallel2", wiring="layer_input"), LayerSpec("mixed", n=(1, 3)),
                 LayerSpec("mixed", n=(3, 0)), LayerSpec("mixed", n=(0, 2)),
                 LayerSpec("gated", n=1), LayerSpec("shared", n=1),
                 LayerSpec("parallel", n=1), LayerSpec("parallel2", n=1),
                 LayerSpec("parallel", n=5)):
        cases.append(ModelConfig(input_dim=10, layers=(spec,), head=HeadSpec("softmax", 4),
                                 hidden=4))

    for cfg in cases:
        table = random_embeddings(vocab, cfg.input_dim, np.random.default_rng(1))
        names = [f"n{i}" for i in range(cfg.head.classes)]
        model = build_model(cfg, table, names, rng)
        instantiated = sum(p.data.size for p in model.named_parameters().values())
        assert count_params(cfg) == instantiated, cfg


def test_subnetwork_count_override_changes_cost():
    small = _uni("parallel", hidden=None)
    big = ModelConfig(input_dim=10, layers=(LayerSpec(kind="parallel", n=5),),
                      head=HeadSpec("softmax", 4), hidden=None)
    assert count_params(big, 6) > count_params(small, 6)


def test_counts_strictly_increase_with_hidden():
    for topo in STANDARD_TOPOLOGIES:
        cfg = model_config("trec", topo)
        counts = [count_params(cfg, h) for h in range(1, 30)]
        assert all(b > a for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
def test_count_exceeds_one_recurrent_matrix(kind):
    # every layer holds an h x h recurrent matrix; the solver's bracket
    # 1..isqrt(budget) + 1 rests on it
    for head, classes in (("softmax", 2), ("crf", 1)):
        for bi in (False, True):
            cfg = _uni(kind, d=1, classes=classes, head=head, bi=bi, hidden=None)
            for h in (1, 2, 7, 64, 300):
                assert count_params(cfg, h) > h * h, (head, bi, h)


def test_solver_inverts_count():
    cfg = model_config("sst", "gru")
    for h in (1, 17, 107):
        assert solve_hidden_size(cfg, count_params(cfg, h)) == h


def test_solver_tie_prefers_smaller():
    # h^2 + 7h + 2 gives counts 10 and 20; budget 15 ties both sides
    cfg = _uni("simple", d=4, classes=2, hidden=None)
    assert count_params(cfg, 1) == 10 and count_params(cfg, 2) == 20
    assert solve_hidden_size(cfg, 15) == 1
    assert solve_hidden_size(cfg, 16) == 2


def test_solver_rejects_budget_below_minimum():
    cfg = _uni("simple", d=4, classes=2, hidden=None)
    with pytest.raises(BudgetError):
        solve_hidden_size(cfg, 5)


def test_shared_layer_is_wired_tier1_all():
    assert LayerSpec("shared").wiring == "tier1_all"
    assert LayerSpec("parallel2") == LayerSpec("parallel2", 3, "tier1_own")
    with pytest.raises(ValueError, match="wiring"):
        LayerSpec("shared", wiring="tier1_own")


def test_layer_spec_rejects_a_wiring_its_kind_ignores():
    assert LayerSpec("parallel2", wiring="layer_input").wiring == "layer_input"
    for kind, wiring in (("shared", "layer_input"), ("simple", "tier1_all"),
                         ("parallel", "bogus")):
        with pytest.raises(ValueError, match="wiring"):
            LayerSpec(kind, wiring=wiring)


def test_count_validates_hidden():
    cfg = _uni("simple")
    for bad in (0, -1):
        with pytest.raises(ValueError):
            count_params(cfg, bad)
    with pytest.raises(ValueError):
        count_params(_uni("simple", hidden=None))


# The reference sizing grid is reproduced exactly except for four known
# cells where the solver's arithmetic lands one or two units away; those
# are pinned here so any drift in either direction is visible.
_KNOWN_DRIFT = {
    ("sst", "irnn", 400_000): 318,
    ("conll", "irnn", 400_000): 318,
    ("conll", "irnn", 800_000): 496,
    ("conll", "gru", 800_000): 243,
}


def test_reference_grid_reproduction():
    for task, arch in TASKS.items():
        for topo in STANDARD_TOPOLOGIES:
            cfg = model_config(task, topo)
            for budget in arch["budgets"]:
                got = solve_hidden_size(cfg, budget)
                want = _KNOWN_DRIFT.get((task, topo, budget),
                                        REFERENCE_SIZES[(task, topo, budget)])
                assert got == want, (task, topo, budget, got, want)


def test_sizing_table_flags_drift_instead_of_hiding_it():
    table = emit_sizing_table()
    assert "318(!320)" in table
    assert "496(!497)" in table
    lines = table.splitlines()
    assert len(lines) == 1 + 9 and all(len(l.split()) == 2 + 7 for l in lines[1:])
    assert table.count("(!") == len(_KNOWN_DRIFT)
