import math

import numpy as np
import pytest

from nornet.cells import (GATE_NAMES, CellParams, CellState, cell_step, glorot_init,
                          identity_recurrence_init, new_cell_params, scan,
                          zero_state)
from nornet.tensor import Tape, Tensor, concat, elementwise_mul, grad_check, reduce_sum


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def _aff(w, u, b, x, h):
    out = []
    for row in range(w.shape[0]):
        s = 0.0
        for k in range(w.shape[1]):
            s += w[row, k] * x[k]
        for k in range(u.shape[1]):
            s += u[row, k] * h[k]
        out.append(s + b[row])
    return out


def _zero_cell(kind, d, h):
    names = GATE_NAMES[kind]
    return CellParams(kind, {g: Tensor(np.zeros((h, d))) for g in names},
                      {g: Tensor(np.zeros((h, h))) for g in names},
                      {g: Tensor(np.zeros(h)) for g in names})


def _random_cell(kind, rng, d=3, h=2):
    p = _zero_cell(kind, d, h)
    glorot_init(p, rng)
    return p


def test_simple_step_matches_scalar_loop():
    rng = np.random.default_rng(10)
    p = _random_cell("simple", rng)
    x = rng.normal(size=3)
    h0 = rng.normal(size=2)
    got = cell_step(Tensor(x), CellState(h=Tensor(h0)), p).h.data
    pre = _aff(p.w["h"].data, p.u["h"].data, p.b["h"].data, x, h0)
    want = [max(v, 0.0) for v in pre]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_gate_step_matches_scalar_loop():
    rng = np.random.default_rng(11)
    p = _random_cell("gate", rng)
    x = rng.normal(size=3)
    h0 = rng.normal(size=2)
    got = cell_step(Tensor(x), CellState(h=Tensor(h0)), p).h.data
    pre = _aff(p.w["h"].data, p.u["h"].data, p.b["h"].data, x, h0)
    np.testing.assert_allclose(got, [_sig(v) for v in pre], rtol=1e-12)


def test_gru_step_matches_scalar_loop():
    rng = np.random.default_rng(12)
    p = _random_cell("gru", rng)
    for t in p.b.values():
        t.data[...] = rng.normal(size=t.data.shape)  # nonzero biases too
    x = rng.normal(size=3)
    h0 = rng.normal(size=2)
    got = cell_step(Tensor(x), CellState(h=Tensor(h0)), p).h.data

    z = [_sig(v) for v in _aff(p.w["z"].data, p.u["z"].data, p.b["z"].data, x, h0)]
    r = [_sig(v) for v in _aff(p.w["r"].data, p.u["r"].data, p.b["r"].data, x, h0)]
    rh = [r[k] * h0[k] for k in range(2)]
    c = [math.tanh(v) for v in _aff(p.w["c"].data, p.u["c"].data, p.b["c"].data, x, rh)]
    want = [(1.0 - z[k]) * h0[k] + z[k] * c[k] for k in range(2)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_lstm_step_matches_scalar_loop():
    rng = np.random.default_rng(13)
    p = _random_cell("lstm", rng)
    for t in p.b.values():
        t.data[...] = rng.normal(size=t.data.shape)
    x = rng.normal(size=3)
    h0 = rng.normal(size=2)
    c0 = rng.normal(size=2)
    new = cell_step(Tensor(x), CellState(h=Tensor(h0), c=Tensor(c0)), p)

    gates = {}
    for name in ("i", "f", "o", "g"):
        pre = _aff(p.w[name].data, p.u[name].data, p.b[name].data, x, h0)
        gates[name] = [math.tanh(v) for v in pre] if name == "g" else [_sig(v) for v in pre]
    c_want = [c0[k] * gates["f"][k] + gates["g"][k] * gates["i"][k] for k in range(2)]
    h_want = [math.tanh(c_want[k]) * gates["o"][k] for k in range(2)]
    np.testing.assert_allclose(new.c.data, c_want, rtol=1e-12)
    np.testing.assert_allclose(new.h.data, h_want, rtol=1e-12)


def test_lstm_zero_params_closed_form():
    # all-zero parameters, c0 = 1: every sigmoid gate is 1/2, g is 0,
    # so c' = 1/2 and h' = tanh(1/2) / 2
    p = _zero_cell("lstm", 1, 1)
    st = cell_step(Tensor(np.zeros(1)), CellState(h=Tensor(np.zeros(1)), c=Tensor(np.ones(1))), p)
    assert st.c.data[0] == pytest.approx(0.5, abs=0)
    assert st.h.data[0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-16)


def test_gru_zero_params_halves_state():
    p = _zero_cell("gru", 1, 1)
    st = cell_step(Tensor(np.zeros(1)), CellState(h=Tensor(np.ones(1))), p)
    assert st.h.data[0] == pytest.approx(0.5, abs=0)


def test_lstm_requires_cell_memory():
    rng = np.random.default_rng(14)
    p = _random_cell("lstm", rng)
    with pytest.raises(ValueError):
        cell_step(Tensor(np.zeros(3)), CellState(h=Tensor(np.zeros(2))), p)


def test_identity_recurrence_init_contract():
    rng = np.random.default_rng(15)
    p = _zero_cell("simple", 4, 6)
    identity_recurrence_init(p, rng)
    assert p.u["h"].data.tobytes() == np.eye(6).tobytes()
    assert p.b["h"].data.tobytes() == np.zeros(6).tobytes()
    assert np.all(np.abs(p.w["h"].data) < 0.01)  # tiny gaussian inputs
    assert p.w["h"].data.std() > 0


def test_identity_init_rejects_gated_kinds():
    rng = np.random.default_rng(16)
    for kind in ("gate", "gru", "lstm"):
        with pytest.raises(ValueError):
            identity_recurrence_init(_random_cell(kind, rng), rng)


def test_default_init_dispatch():
    rng = np.random.default_rng(17)
    simple = new_cell_params("simple", 3, 4, rng)
    assert np.array_equal(simple.u["h"].data, np.eye(4))
    gru = new_cell_params("gru", 3, 4, rng)
    lim = math.sqrt(6.0 / (3 + 4))
    assert np.all(np.abs(gru.w["z"].data) <= lim)
    assert not np.array_equal(gru.u["z"].data, np.eye(4))


def test_glorot_bounds_and_zero_bias():
    rng = np.random.default_rng(18)
    p = _random_cell("lstm", rng, d=5, h=7)
    for g in GATE_NAMES["lstm"]:
        wlim = math.sqrt(6.0 / (5 + 7))
        ulim = math.sqrt(6.0 / (7 + 7))
        assert np.all(np.abs(p.w[g].data) <= wlim)
        assert np.all(np.abs(p.u[g].data) <= ulim)
        assert np.all(p.b[g].data == 0.0)


def test_named_parameter_keys():
    rng = np.random.default_rng(19)
    p = _random_cell("gru", rng)
    keys = set(p.named("c").keys())
    assert keys == {f"c.{kind}_{g}" for kind in ("w", "u", "b") for g in ("z", "r", "c")}


def test_zero_state_shapes():
    st = zero_state("lstm", 3)
    assert st.h.data.shape == (3,) and st.c.data.shape == (3,)
    st = zero_state("gru", 3)
    assert st.c is None


def test_cell_params_validation():
    with pytest.raises(ValueError):
        new_cell_params("bogus", 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        new_cell_params("simple", 0, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        CellParams("gru", {"h": Tensor(np.zeros((1, 1)))},
                   {"h": Tensor(np.zeros((1, 1)))}, {"h": Tensor(np.zeros(1))})


@pytest.mark.parametrize("kind", ["simple", "gate", "gru", "lstm"])
def test_unrolled_cell_gradients(kind):
    rng = np.random.default_rng(20)
    p = _random_cell(kind, rng)
    for t in p.b.values():
        t.data[...] = rng.normal(0.0, 0.3, size=t.data.shape)
    xs = [Tensor(rng.normal(size=3)) for _ in range(3)]

    def f():
        st = zero_state(kind, 2)
        outs = []
        for x in xs:
            st = cell_step(x, st, p)
            outs.append(st.h)
        return reduce_sum(concat(outs))

    report = grad_check(f, p.named("p"))
    assert report.passed, report.lines()


def test_state_does_not_leak_between_steps():
    # two different inputs from the same initial state must not share h
    rng = np.random.default_rng(21)
    p = _random_cell("simple", rng)
    st = zero_state("simple", 2)
    with Tape():
        a = cell_step(Tensor(rng.normal(size=3)), st, p)
        b = cell_step(Tensor(rng.normal(size=3)), st, p)
        assert not np.array_equal(a.h.data, b.h.data)
        assert np.array_equal(st.h.data, np.zeros(2))


@pytest.mark.parametrize("kind", sorted(GATE_NAMES))
def test_constant_part_is_a_tensor_part_without_its_leaf(kind):
    # an ndarray part joins the products like a Tensor part, but the tape
    # records no leaf for it and skips its input gradient
    rng = np.random.default_rng(61)
    p = new_cell_params(kind, 5, 3, rng)
    x = rng.normal(size=(2, 4))
    y, weights = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))

    def run(part):
        with Tape() as tape:
            seq, _ = scan([part, y], None, p)
            tape.backward(reduce_sum(elementwise_mul(seq, weights)))
        grads = [tape.grad(t).tobytes() for t in [*p.named("cell").values(), y]]
        return seq.data.tobytes(), grads, sum(node.kind == "leaf" for node in tape.nodes)

    out, grads, leaves = run(x)
    assert run(Tensor(x)) == (out, grads, leaves + 1)


@pytest.mark.parametrize("kind", sorted(GATE_NAMES))
def test_scan_is_invariant_to_part_order(kind):
    # moving a part together with its column block of every gate's W moves
    # no bit of the outputs
    rng = np.random.default_rng(62)
    dims = (3, 1, 4, 2)
    edges = np.cumsum((0,) + dims)
    p = new_cell_params(kind, sum(dims), 3, rng)
    parts = [rng.normal(size=(d, 6)) for d in dims]
    want = scan(parts, None, p)[0].data.tobytes()
    for perm in [(3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)]:
        moved = new_cell_params(kind, sum(dims), 3, rng)
        for g in GATE_NAMES[kind]:
            cols = [p.w[g].data[:, edges[i]:edges[i + 1]] for i in range(len(dims))]
            moved.w[g].data[...] = np.concatenate([cols[i] for i in perm], axis=1)
            moved.u[g].data[...] = p.u[g].data
            moved.b[g].data[...] = p.b[g].data
        assert scan([parts[i] for i in perm], None, moved)[0].data.tobytes() == want, perm
