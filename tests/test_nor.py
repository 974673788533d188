import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from nornet import budget
from nornet.cells import GATE_NAMES, cell_step, new_cell_params, zero_state
from nornet.nor import (LAYER_KINDS, LayerSpec, NorLayer, bidirectional_wrap,
                        component_o_combine, unroll)
from nornet.tensor import (Tape, Tensor, add, block_matmul, concat, elementwise_mul, grad_check,
                           matmul, reduce_sum, relu, sigmoid)


def _copy_params(dst_layer, src_layer):
    src = src_layer.named_parameters()
    for name, p in dst_layer.named_parameters().items():
        p.data[...] = src[name].data


def _run_bits(layer, xs):
    outs, _ = unroll(layer, [Tensor(x) for x in xs])
    return b"".join(o.data.tobytes() for o in outs)


def test_combiner_matches_numpy_oracle():
    rng = np.random.default_rng(30)
    parts = [Tensor(rng.normal(size=3)), Tensor(rng.normal(size=2))]
    w = Tensor(rng.normal(size=(4, 5)))
    b = Tensor(rng.normal(size=4))
    got = component_o_combine(parts, w, b).data
    want = np.maximum(w.data @ np.concatenate([p.data for p in parts]) + b.data, 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_combiner_rejects_mismatched_width():
    with pytest.raises(ValueError):
        component_o_combine([Tensor(np.ones(3))], Tensor(np.ones((2, 4))), Tensor(np.ones(2)))


def test_combiner_node_count_does_not_grow_with_subnetworks():
    rng = np.random.default_rng(31)
    counts = []
    for m in (1, 3, 6):
        parts = [Tensor(rng.normal(size=2)) for _ in range(m)]
        with Tape() as tape:
            component_o_combine(parts, Tensor(rng.normal(size=(3, 2 * m))), Tensor(np.zeros(3)))
        counts.append(sum(node.kind != "leaf" for node in tape.nodes))
    assert counts == [1, 1, 1]


def test_ma_forward_matches_numpy_oracle():
    rng = np.random.default_rng(31)
    layer = NorLayer(LayerSpec("parallel", 2), 4, 3, rng)
    x = rng.normal(size=4)
    out, state = layer.step(Tensor(x), layer.initial_state())

    h = []
    for i in range(2):
        c = layer.cells[i][0]
        h.append(np.maximum(c.w["h"].data @ x + c.u["h"].data @ np.zeros(3) + c.b["h"].data, 0.0))
    want = np.maximum(layer.w_mlp.data @ np.concatenate(h) + layer.b_mlp.data, 0.0)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(state[0][0].h.data, h[0], rtol=1e-12)


def test_gated_forward_matches_numpy_oracle():
    rng = np.random.default_rng(32)
    layer = NorLayer(LayerSpec("gated", 1), 4, 3, rng)
    x = rng.normal(size=4)
    out, _ = layer.step(Tensor(x), layer.initial_state())

    gate_c, gen_c = layer.cells[0][0], layer.cells[1][0]
    z = 1.0 / (1.0 + np.exp(-(gate_c.w["h"].data @ x + gate_c.b["h"].data)))
    s = np.maximum(gen_c.w["h"].data @ x + gen_c.b["h"].data, 0.0)
    want = np.maximum(layer.w_mlp.data @ (z * s) + layer.b_mlp.data, 0.0)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-14)


def test_collapse_single_subnet_identity_combiner_is_simple_rnn():
    # one-subnetwork parallel layer with identity combiner: relu output of
    # the cell passes through relu(I h + 0) unchanged, bit for bit
    rng = np.random.default_rng(33)
    layer = NorLayer(LayerSpec("parallel", 1), 4, 3, rng)
    layer.w_mlp.data[...] = np.eye(3)
    layer.b_mlp.data[...] = 0.0

    cell = new_cell_params("simple", 4, 3, np.random.default_rng(99))
    src = layer.cells[0][0]
    for part in ("w", "u", "b"):
        getattr(cell, part)["h"].data[...] = getattr(src, part)["h"].data

    xs = np.random.default_rng(34).normal(size=(5, 4))
    outs, _ = unroll(layer, [Tensor(x) for x in xs])
    st = zero_state("simple", 3)
    for t, x in enumerate(xs):
        st = cell_step(Tensor(x), st, cell)
        assert outs[t].data.tobytes() == st.h.data.tobytes()


def test_collapse_mixed_without_two_tier_is_parallel():
    rng = np.random.default_rng(35)
    ma = NorLayer(LayerSpec("parallel", 2), 4, 3, rng)
    ms = NorLayer(LayerSpec("mixed", (2, 0)), 4, 3, np.random.default_rng(0))
    _copy_params(ms, ma)
    xs = np.random.default_rng(36).normal(size=(5, 4))
    assert _run_bits(ma, xs) == _run_bits(ms, xs)


def test_collapse_blockdiagonal_shared_is_two_tier_parallel():
    # zeroing the cross-subnetwork blocks of the shared tier-2 inputs
    # reduces tier1_all wiring to tier1_own, exactly
    rng = np.random.default_rng(37)
    h, n, d = 3, 2, 4
    ma2 = NorLayer(LayerSpec("parallel2", n), d, h, rng)
    ss = NorLayer(LayerSpec("shared", n), d, h, np.random.default_rng(0))

    for i in range(n):
        for part in ("w", "u", "b"):
            for g in ("h",):
                getattr(ss.cells[i][0], part)[g].data[...] = \
                    getattr(ma2.cells[i][0], part)[g].data
        ss.cells[i][1].u["h"].data[...] = ma2.cells[i][1].u["h"].data
        ss.cells[i][1].b["h"].data[...] = ma2.cells[i][1].b["h"].data
        wide = np.zeros((h, n * h))
        wide[:, i * h:(i + 1) * h] = ma2.cells[i][1].w["h"].data
        ss.cells[i][1].w["h"].data[...] = wide
    ss.w_mlp.data[...] = ma2.w_mlp.data
    ss.b_mlp.data[...] = ma2.b_mlp.data

    xs = np.random.default_rng(38).normal(size=(5, 4))
    assert _run_bits(ma2, xs) == _run_bits(ss, xs)


def _blocks(m, perm, h):
    return np.concatenate([m[:, i * h:(i + 1) * h] for i in perm], axis=1)


# perm[dst] is the subnetwork of `a` that `b` holds at position dst; mixed
# permutes its one-tier and its two-tier subnetworks among themselves, gated
# moves whole (gate, generalization) pairs
@pytest.mark.parametrize("spec, perm", [
    (LayerSpec("parallel", 3), [2, 0, 1]),
    (LayerSpec("parallel2", 3), [2, 0, 1]),
    (LayerSpec("mixed", (2, 2)), [1, 0, 3, 2]),
    (LayerSpec("gated", 3), [4, 5, 0, 1, 2, 3]),
    pytest.param(LayerSpec("shared", 3), [2, 0, 1], marks=pytest.mark.xfail(
        strict=True, reason="tier 2 multiplies the joined tier-1 outputs in position order")),
], ids=["parallel", "parallel2", "mixed", "gated", "shared"])
def test_subnetwork_order_is_immaterial_bitwise(spec, perm):
    h, d = 3, 4
    a = NorLayer(spec, d, h, np.random.default_rng(39))
    b = NorLayer(spec, d, h, np.random.default_rng(0))
    for dst, src in enumerate(perm):
        for tier, (cb, ca) in enumerate(zip(b.cells[dst], a.cells[src])):
            for gate in GATE_NAMES[ca.kind]:
                w = ca.w[gate].data
                cb.w[gate].data[...] = _blocks(w, perm, h) if tier and spec.wiring == "tier1_all" else w
                cb.u[gate].data[...] = ca.u[gate].data
                cb.b[gate].data[...] = ca.b[gate].data
    merged = [p // 2 for p in perm[0::2]] if spec.kind == "gated" else perm
    b.w_mlp.data[...] = _blocks(a.w_mlp.data, merged, h)
    b.b_mlp.data[...] = a.b_mlp.data

    xs = np.random.default_rng(40).normal(size=(8, d))
    outs_a, _ = unroll(a, [Tensor(x) for x in xs])
    outs_b, _ = unroll(b, [Tensor(x) for x in xs])
    # the permuted layer computes the same function; only bits are claimed here
    for oa, ob in zip(outs_a, outs_b):
        np.testing.assert_allclose(ob.data, oa.data, rtol=1e-12, atol=1e-14)
    assert _run_bits(a, xs) == _run_bits(b, xs)


def test_outputs_are_causal():
    rng = np.random.default_rng(41)
    layer = NorLayer(LayerSpec("shared", 2), 4, 3, rng)
    xs = np.random.default_rng(42).normal(size=(5, 4))
    before, _ = unroll(layer, [Tensor(x) for x in xs])
    xs2 = xs.copy()
    xs2[3] += 10.0
    after, _ = unroll(layer, [Tensor(x) for x in xs2])
    for t in range(3):
        assert before[t].data.tobytes() == after[t].data.tobytes()
    assert before[3].data.tobytes() != after[3].data.tobytes()


def test_wiring_controls_tier2_input_width():
    rng = np.random.default_rng(43)
    own = NorLayer(LayerSpec("parallel2", 2, "tier1_own"), 7, 3, rng)
    raw = NorLayer(LayerSpec("parallel2", 2, "layer_input"), 7, 3, rng)
    assert own.cells[0][1].input_dim == 3
    assert raw.cells[0][1].input_dim == 7
    shared = NorLayer(LayerSpec("shared", 2), 7, 3, rng)
    assert shared.cells[0][1].input_dim == 6


# every layer kind built from relu and sigmoid cells, ma2 in both wirings
_TIME_MAJOR = [LayerSpec("simple"), LayerSpec("parallel", 2), LayerSpec("parallel2", 2),
               LayerSpec("parallel2", 2, "layer_input"), LayerSpec("mixed", (1, 1)),
               LayerSpec("shared", 2), LayerSpec("gated", 2)]
_IDS = ["irnn", "ma", "ma2", "ma2-layer_input", "ms", "ss", "gate"]


def _op_kinds(layer, steps):
    with Tape() as tape:
        unroll(layer, [Tensor(x) for x in np.random.default_rng(44).normal(size=(steps, 4))])
    return Counter(node.kind for node in tape.nodes if node.kind != "leaf")


def test_shared_layer_joins_tier1_outputs_once_per_sentence():
    layer = NorLayer(LayerSpec("shared", 3), 4, 2, np.random.default_rng(44))
    assert _op_kinds(layer, 5)["concat"] == 1


@pytest.mark.parametrize("spec", _TIME_MAJOR, ids=_IDS)
def test_layer_nodes_grow_only_by_column_ops(spec):
    # the stack, the scans, the joins and the combiner are one op each per
    # sentence; only the column op that hands a step its output is per token
    layer = NorLayer(spec, 4, 3, np.random.default_rng(44))
    short, long = _op_kinds(layer, 5), _op_kinds(layer, 10)
    assert long - short == Counter(col=5) and short["stack"] == 1


@pytest.mark.parametrize("spec", _TIME_MAJOR + [LayerSpec("gru"), LayerSpec("lstm")],
                         ids=_IDS + ["gru", "lstm"])
def test_finished_tape_is_freed_without_the_cycle_collector(spec):
    # a backward closure that held a tensor would hold its tape in a cycle:
    # every tape of a training run would then wait for a collector pass
    layer = NorLayer(spec, 4, 3, np.random.default_rng(54))
    xs = [Tensor(v) for v in np.random.default_rng(55).normal(size=(5, 4))]
    gc.disable()
    try:
        with Tape() as tape:
            tape.backward(reduce_sum(concat(unroll(layer, xs)[0])))
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
    finally:
        gc.enable()


def _reference_unroll(layer, xs):
    """The layer as a step composition of tensor ops: per step and cell two
    products, two adds and an activation, and a block-product combiner."""
    def cell(p, x, h):
        act = relu if p.kind == "simple" else sigmoid
        return act(add(add(matmul(p.w["h"], x), matmul(p.u["h"], h)), p.b["h"]))

    spec, outs = layer.topology, []
    hs = [[zero_state(c.kind, c.hidden).h for c in tiers] for tiers in layer.cells]
    for x in xs:
        tier1 = [cell(tiers[0], x, hs[i][0]) for i, tiers in enumerate(layer.cells)]
        feeds = spec.tier2_feeds(x, tier1, concat)
        hs = [[h] + ([cell(tiers[1], feeds[i], hs[i][1])] if len(tiers) == 2 else [])
              for i, (h, tiers) in enumerate(zip(tier1, layer.cells))]
        last = [h[-1] for h in hs]
        outs.append(last[0] if layer.w_mlp is None else relu(add(
            block_matmul(layer.w_mlp, spec.merge(last, elementwise_mul)), layer.b_mlp)))
    return outs


@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("spec", _TIME_MAJOR, ids=_IDS)
def test_time_major_layer_matches_step_composition(spec, steps):
    rng = np.random.default_rng(52)
    layer = NorLayer(spec, 4, 3, rng)
    params = layer.named_parameters()
    for p in params.values():
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    xs = [Tensor(v) for v in rng.normal(size=(steps, 4))]
    weights = Tensor(rng.normal(size=3 * steps))

    def run(outputs):
        with Tape() as tape:
            outs = outputs()
            tape.backward(reduce_sum(elementwise_mul(concat(outs), weights)))
        return [o.data.tobytes() for o in outs], {n: tape.grad(p) for n, p in params.items()}

    bits, grads = run(lambda: unroll(layer, xs)[0])
    want_bits, want = run(lambda: _reference_unroll(layer, xs))
    assert bits == want_bits
    for name, g in grads.items():
        scale = np.abs(want[name]).max()
        assert np.abs(g - want[name]).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("spec", [LayerSpec("shared", 2), LayerSpec("gated", 2)],
                         ids=["ss", "gate"])
def test_unroll_carries_state_across_calls(spec):
    rng = np.random.default_rng(53)
    layer = NorLayer(spec, 4, 3, rng)
    params = layer.named_parameters()
    for p in params.values():
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    xs = [Tensor(v) for v in rng.normal(size=(7, 4))]

    def in_two():
        head, state = unroll(layer, xs[:3])
        return head + unroll(layer, xs[3:], state)[0]

    assert [o.data.tobytes() for o in in_two()] == [o.data.tobytes() for o in unroll(layer, xs)[0]]
    report = grad_check(lambda: reduce_sum(concat(in_two())), params)
    assert report.passed, report.lines()


def test_layer_rejects_wrong_input_shape():
    rng = np.random.default_rng(44)
    layer = NorLayer(LayerSpec("parallel", 2), 4, 3, rng)
    with pytest.raises(ValueError):
        layer.step(Tensor(np.zeros(5)), layer.initial_state())


def test_topology_validation():
    bad_counts = {"parallel": (0, -1, (1, 1)), "parallel2": (0, (2, 0)), "shared": (0,),
                  "gated": (0, (1, 1)), "mixed": ((0, 0), (-1, 2), 3, (1, 2, 3))}
    for kind, counts in bad_counts.items():
        for n in counts:
            with pytest.raises(ValueError, match="count|pair"):
                LayerSpec(kind, n)
    rng = np.random.default_rng(0)
    for kind, n in (("parallel", 3), ("mixed", (2, 2)), ("gated", 1), ("lstm", None)):
        with pytest.raises(ValueError, match="hidden"):
            NorLayer(LayerSpec(kind, n), 4, 0, rng)
    with pytest.raises(ValueError, match="kind"):
        LayerSpec("bogus")
    for kind in ("simple", "lstm"):
        for n, wiring in ((1, None), (None, "tier1_own")):
            with pytest.raises(ValueError, match="plain layer kind"):
                LayerSpec(kind, n, wiring)
    for kind, wiring in (("parallel", "layer_input"), ("shared", "tier1_own"),
                         ("parallel2", "tier1_all"), ("gated", "bogus")):
        with pytest.raises(ValueError, match="wiring"):
            LayerSpec(kind, 2, wiring)


def test_each_kind_has_a_combiner_only_if_composite():
    assert budget.LayerSpec is LayerSpec
    for kind, entry in LAYER_KINDS.items():
        layer = NorLayer(LayerSpec(kind), 4, 3, np.random.default_rng(0))
        plain = entry.default_n is None
        assert (layer.w_mlp is None) == plain
        assert any(".combiner." in name for name in layer.named_parameters()) != plain


@pytest.mark.parametrize("kind", ["simple", "gru", "lstm"])
def test_plain_layer_is_its_cell_stepped_from_zero_state(kind):
    layer = NorLayer(LayerSpec(kind), 4, 3, np.random.default_rng(50))
    cell = new_cell_params(kind, 4, 3, np.random.default_rng(50))
    assert layer.w_mlp is None and len(layer.cells) == 1 and len(layer.cells[0]) == 1
    assert list(layer.named_parameters("layer0")) == [
        f"layer0.{part}_{g}" for g in GATE_NAMES[kind] for part in ("w", "u", "b")]
    xs = np.random.default_rng(51).normal(size=(5, 4))
    outs, state = unroll(layer, [Tensor(x) for x in xs])
    st = zero_state(kind, 3)
    for t, x in enumerate(xs):
        st = cell_step(Tensor(x), st, cell)
        assert outs[t].data.tobytes() == st.h.data.tobytes()
    assert state[0][0].h.data.tobytes() == st.h.data.tobytes()
    if kind == "lstm":
        assert state[0][0].c.data.tobytes() == st.c.data.tobytes()


def test_unroll_threads_state_and_rejects_empty():
    rng = np.random.default_rng(45)
    layer = NorLayer(LayerSpec("parallel", 2), 4, 3, rng)
    xs = [Tensor(v) for v in np.random.default_rng(46).normal(size=(2, 4))]
    outs, state = unroll(layer, xs)
    o0, s0 = layer.step(xs[0], layer.initial_state())
    o1, s1 = layer.step(xs[1], s0)
    assert outs[1].data.tobytes() == o1.data.tobytes()
    assert state[0][0].h.data.tobytes() == s1[0][0].h.data.tobytes()
    with pytest.raises(ValueError):
        unroll(layer, [])


def test_bidirectional_concat_layout():
    rng = np.random.default_rng(47)
    fwd = NorLayer(LayerSpec("parallel", 2), 4, 3, rng)
    bwd = NorLayer(LayerSpec("parallel", 2), 4, 3, rng)
    xs = [Tensor(v) for v in np.random.default_rng(48).normal(size=(4, 4))]
    both = bidirectional_wrap(fwd, bwd, xs)
    f, _ = unroll(fwd, xs)
    b_rev, _ = unroll(bwd, list(reversed(xs)))
    b = list(reversed(b_rev))
    assert len(both) == 4 and both[0].data.shape == (6,)
    for t in range(4):
        want = np.concatenate([f[t].data, b[t].data])
        assert both[t].data.tobytes() == want.tobytes()


@pytest.mark.parametrize("topo", [
    LayerSpec("parallel", 2),
    LayerSpec("parallel2", 2),
    LayerSpec("parallel2", 2, "layer_input"),
    LayerSpec("mixed", (1, 1)),
    LayerSpec("shared", 2),
    LayerSpec("gated", 2),
])
def test_layer_gradients(topo):
    rng = np.random.default_rng(49)
    layer = NorLayer(topo, 4, 3, rng)
    params = layer.named_parameters()
    for p in params.values():
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    xs = [Tensor(v) for v in rng.normal(size=(3, 4))]

    def f():
        outs, _ = unroll(layer, xs)
        return reduce_sum(concat(outs))

    report = grad_check(f, params)
    assert report.passed, report.lines()
