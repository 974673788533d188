import itertools
import math
import sys
import threading

import numpy as np
import pytest

from nornet.tensor import (ShapeError, Tape, Tensor, _gemvs, _mm2, _ranked_sum, add, concat,
                           elementwise_mul, grad_check, matmul, reduce_sum, relu,
                           scale, sigmoid, sub, tanh)


def test_matmul_matches_numpy_dot():
    rng = np.random.default_rng(0)
    for shapes in [((3, 4), (4,)), ((1, 5), (5,)), ((6, 1), (1,)), ((2, 9), (9,))]:
        a = rng.normal(size=shapes[0])
        b = rng.normal(size=shapes[1])
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, a @ b, rtol=1e-12, atol=1e-12)


def test_matmul_exact_on_integers():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(3.0)
    assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)


def test_matmul_zero_summands_change_nothing():
    # padding a weight matrix with zero columns must not move a single bit,
    # whether the padded input entries are zeros of either sign or not zero
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 3))
    x = rng.normal(size=3)
    wide = np.concatenate([w, np.zeros((4, 5))], axis=1)
    xz = np.concatenate([x, rng.normal(size=5) * 0.0])
    assert np.signbit(xz[3:]).any() and not np.signbit(xz[3:]).all()
    lhs = matmul(Tensor(w), Tensor(x)).data
    for padded in (np.concatenate([x, np.zeros(5)]), xz, np.concatenate([x, rng.normal(size=5)])):
        assert lhs.tobytes() == matmul(Tensor(wide), Tensor(padded)).data.tobytes()


def _running_sum_mm2(a, b):
    # the reference order: a cumsum along k, of which only the last entry counts
    prod = a[:, None, :] * b.T[None, :, :]
    if prod.shape[-1] == 0:
        return np.zeros(prod.shape[:-1])
    return np.cumsum(prod, axis=-1)[..., -1]


def _same_bits(x, y):
    # equal values, NaN where NaN, and the same sign on every zero
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x) & (x == 0), np.signbit(y) & (y == 0)))


def _operands(rng, m, k, n, fill):
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    if fill == "zeros":
        a, b = a * 0.0, b * 0.0
    elif fill == "signed_zeros":
        a[rng.random(a.shape) < 0.5] = -0.0
        b[rng.random(b.shape) < 0.3] = 0.0
    elif fill == "nonfinite":
        a[rng.random(a.shape) < 0.2] = np.inf
        a[rng.random(a.shape) < 0.1] = -np.inf
        b[rng.random(b.shape) < 0.1] = np.nan
    elif fill == "extreme":
        a *= 10.0 ** rng.integers(-300, 301, size=a.shape)
        b *= 10.0 ** rng.integers(-300, 301, size=b.shape)
    return a, b


_FILLS = ("normal", "zeros", "signed_zeros", "nonfinite", "extreme")


@pytest.mark.parametrize("fill", _FILLS)
def test_mm2_matches_running_sum_bit_for_bit(fill):
    rng = np.random.default_rng(_FILLS.index(fill))
    shapes = [(1, k, 1) for k in (0, 1, 2, 7, 8, 9, 33)] + [(3, 0, 4), (5, 1, 6), (1, 1, 1)]
    shapes += [tuple(int(v) for v in rng.integers(1, 24, size=3)) for _ in range(300)]
    shapes += [(1, int(rng.integers(2, 40)), 1) for _ in range(30)]
    for m, k, n in shapes:
        a, b = _operands(rng, m, k, n, fill)
        # backward passes transposed views, so k is not always the contiguous axis
        for a_, b_ in ((a, b), (np.ascontiguousarray(a.T).T, b), (a, np.ascontiguousarray(b.T).T)):
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = _mm2(a_, b_), _running_sum_mm2(a_, b_)
            assert _same_bits(got, want), (fill, m, k, n)


# the cell and combiner weights of the perfbench layers: conll-irnn (h=197)
# and trec-ma (h=74) over 300-wide embeddings, sst-ss (h=61) tier-2 and
# combiner blocks
_LAYER_SHAPES = [(197, 300), (74, 300), (61, 183), (61, 122), (61, 61)]


def test_stacked_matmul_slices_are_lone_gemvs_bit_for_bit():
    # the scan and the combiner rest on this: np.matmul over a leading axis
    # makes, slice by slice, the lone a @ x product, on contiguous operands and
    # on the column blocks and transposed views the layers pass
    rng = np.random.default_rng(8)
    shapes = _LAYER_SHAPES + [tuple(int(v) for v in rng.integers(1, 90, size=2)) for _ in range(12)]
    for m, k in shapes:
        wide = rng.normal(size=(m, 3 * k))
        for a in (np.ascontiguousarray(wide[:, k:2 * k]), wide[:, k:2 * k]):
            for n in (1, 2, 7, 30):
                b = rng.normal(size=(k, n))
                for b_ in (b, np.ascontiguousarray(b.T).T):
                    stacked, got = np.matmul(a, b_.T[:, :, None]), _gemvs(a, b_)
                    for j in range(n):
                        lone = (a @ np.ascontiguousarray(b_[:, j])).tobytes()
                        assert stacked[j, :, 0].tobytes() == lone == got[j].tobytes(), (m, k, n, j)


def test_minimum_and_maximum_return_their_second_operand_on_a_tie():
    # _ranked_sum's compare-exchange rests on this numpy rule, as checked on
    # numpy 2.4.6: min(a, b), max(b, a) swaps a tied pair, so -0.0 and 0.0
    # keep one copy each
    pos, neg = np.zeros(3), -np.zeros(3)
    for x, y in ((pos, neg), (neg, pos)):
        assert np.minimum(x, y).tobytes() == y.tobytes()
        assert np.maximum(x, y).tobytes() == y.tobytes()
        assert np.minimum(x[0], y[0]).tobytes() == y[0].tobytes()


def test_ranked_sum_of_signed_zeros_is_the_same_in_every_order():
    # column j of the parts is one tuple over {0.0, -0.0, 2.0, -3.0}, so every
    # multiset of up to 5 terms comes in every order
    values = np.array([0.0, -0.0, 2.0, -3.0])
    for m in range(1, 6):
        tuples = np.array(list(itertools.product(range(4), repeat=m))).T
        parts = list(values[tuples])
        got = _ranked_sum(parts)
        assert all(_ranked_sum(order).tobytes() == got.tobytes()
                   for order in itertools.permutations(parts)), m
        # a column of zeros alone is -0.0 only when every term is
        zeros = (tuples < 2).all(axis=0)
        assert np.array_equal(np.signbit(got[zeros]), (tuples[:, zeros] == 1).all(axis=0))


def test_ranked_sum_adds_the_ranked_terms_one_at_a_time():
    rng = np.random.default_rng(9)
    for m in range(1, 7):
        parts = list(rng.normal(size=(m, 20, 30)))
        ranked = np.sort(np.stack(parts), axis=0)
        want = sum(ranked[1:], ranked[0]).tobytes()
        assert all(_ranked_sum(order).tobytes() == want
                   for order in itertools.permutations(parts)), m


def test_matmul_shape_errors():
    # a matrix times a vector is the only product
    for a, b in [((2, 3), (4,)), ((2, 2, 2), (2,)), ((2, 3), (3, 4)), ((3,), (3, 4)),
                 ((3,), (3,)), ((), ())]:
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


def test_elementwise_shape_checks():
    a, b = Tensor(np.zeros(3)), Tensor(np.zeros(4))
    for op in (add, sub, elementwise_mul):
        with pytest.raises(ShapeError):
            op(a, b)


def test_backward_through_affine_chain():
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    x = Tensor(np.array([5.0, 6.0]))
    b = Tensor(np.array([0.5, -0.5]))
    with Tape() as tape:
        y = add(matmul(w, x), b)
        loss = reduce_sum(y)
        tape.backward(loss)
    np.testing.assert_array_equal(tape.grad(w), np.outer(np.ones(2), x.data))
    np.testing.assert_array_equal(tape.grad(x), w.data.sum(axis=0))
    np.testing.assert_array_equal(tape.grad(b), np.ones(2))


def _weighted_sum(y: Tensor, c: np.ndarray) -> Tensor:
    # loss whose gradient toward y is exactly c
    return reduce_sum(elementwise_mul(y, Tensor(c)))


def test_weight_used_once_gets_the_exact_outer_product():
    rng = np.random.default_rng(20)
    w, x, c = Tensor(rng.normal(size=(4, 3))), rng.normal(size=3), rng.normal(size=4)
    with Tape() as tape:
        tape.backward(_weighted_sum(matmul(w, Tensor(x)), c))
    assert tape.grad(w).tobytes() == np.outer(c, x).tobytes()


def test_weight_used_past_the_flush_rank_matches_fsum():
    # min(m, k) = 3, so 10 uses flush the held factor pairs three times
    # before the sweep reaches the leaf
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(3, 5)))
    xs, cs = rng.normal(size=(10, 5)), rng.normal(size=(10, 3))
    with Tape() as tape:
        total = _weighted_sum(matmul(w, Tensor(xs[0])), cs[0])
        for x, c in zip(xs[1:], cs[1:]):
            total = add(total, _weighted_sum(matmul(w, Tensor(x)), c))
        tape.backward(total)
    want = np.array([[math.fsum(cs[:, i] * xs[:, j]) for j in range(5)] for i in range(3)])
    np.testing.assert_allclose(tape.grad(w), want, rtol=1e-12, atol=0)


def test_non_leaf_left_operand_adds_dense_and_factor_gradients():
    rng = np.random.default_rng(22)
    w, x = Tensor(rng.normal(size=(3, 4))), rng.normal(size=4)
    c, d = rng.normal(size=3), rng.normal(size=(3, 4))
    with Tape() as tape:
        w2 = scale(w, 2.0)   # a 2-D op result: dense gradient from the mul, a pair from matmul
        tape.backward(add(_weighted_sum(matmul(w2, Tensor(x)), c), _weighted_sum(w2, d)))
    np.testing.assert_allclose(tape.grad(w), 2.0 * (np.outer(c, x) + d), rtol=1e-14)


def test_backward_keeps_only_leaf_gradients():
    w = Tensor(np.arange(6.0).reshape(2, 3))
    x = Tensor(np.ones(3))
    with Tape() as tape:
        h = tanh(matmul(w, x))
        grads = tape.backward(reduce_sum(elementwise_mul(h, h)))
    assert sorted(grads) == [i for i, node in enumerate(tape.nodes) if node.kind == "leaf"]
    assert tape.grad(w).shape == (2, 3)
    with pytest.raises(ValueError, match="leaf"):
        tape.grad(h)


def test_grad_of_unused_parameter_is_zeros():
    used = Tensor(np.ones(2))
    unused = Tensor(np.ones(3))
    with Tape() as tape:
        tape.backward(reduce_sum(used))
    assert np.array_equal(tape.grad(unused), np.zeros(3))
    assert np.array_equal(tape.grad(used), np.ones(2))


def test_backward_rejects_vector_loss_and_foreign_tensors():
    v = Tensor(np.ones(3))
    with Tape() as tape:
        y = scale(v, 2.0)
        with pytest.raises(ShapeError):
            tape.backward(y)
    with Tape() as other:
        with pytest.raises(ValueError):
            other.backward(y)  # y belongs to the first tape


def test_only_one_active_tape_per_thread():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_ops_outside_tape_run_eagerly():
    y = relu(Tensor(np.array([-1.0, 2.0])))
    assert y.node_id is None
    np.testing.assert_array_equal(y.data, [0.0, 2.0])


def test_leaf_reused_across_tapes():
    # each tape keeps its own registration of a parameter, so reusing the
    # parameter on a later tape leaves the earlier tape's gradient intact
    p = Tensor(np.array([2.0]))
    with Tape() as t1:
        t1.backward(reduce_sum(scale(p, 3.0)))
    g1 = t1.grad(p)
    with Tape() as t2:
        t2.backward(reduce_sum(elementwise_mul(p, p)))
    np.testing.assert_array_equal(g1, [3.0])
    np.testing.assert_array_equal(t2.grad(p), [4.0])
    np.testing.assert_array_equal(t1.grad(p), [3.0])


def test_threads_sharing_a_parameter_keep_their_own_gradients():
    # force the interleaving: thread A uses w, thread B uses w on its own
    # tape, then A uses w again; A's gradient must count both of its uses
    w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
    x = Tensor(np.array([0.3, -0.7]))
    a_used, b_used = threading.Event(), threading.Event()
    grads, errors = {}, []

    def thread_a():
        try:
            with Tape() as tape:
                h = tanh(matmul(w, x))
                a_used.set()
                assert b_used.wait(10)
                tape.backward(reduce_sum(matmul(w, h)))
            grads["a"] = tape.grad(w)
        except Exception as exc:
            errors.append(exc)

    def thread_b():
        try:
            assert a_used.wait(10)
            with Tape() as tape:
                tape.backward(reduce_sum(matmul(w, x)))
            grads["b"] = tape.grad(w)
        except Exception as exc:
            errors.append(exc)
        finally:
            b_used.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads) and not errors

    with Tape() as tape:
        tape.backward(reduce_sum(matmul(w, tanh(matmul(w, x)))))
    assert grads["a"].tobytes() == tape.grad(w).tobytes()
    with Tape() as tape:
        tape.backward(reduce_sum(matmul(w, x)))
    assert grads["b"].tobytes() == tape.grad(w).tobytes()


def test_many_threads_sharing_parameters_match_serial_gradients():
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(3, 3)))
    xs = [Tensor(rng.normal(size=3)) for _ in range(6)]

    def grad_bytes(x):
        with Tape() as tape:
            tape.backward(reduce_sum(matmul(w, tanh(matmul(w, x)))))
        return tape.grad(w).tobytes()

    want = [grad_bytes(x) for x in xs]
    same, errors = [], []

    def worker():
        try:
            for _ in range(30):
                same.append([grad_bytes(x) for x in xs] == want)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    assert same == [True] * 120


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([0.0, -1.0, 2.0]))
    with Tape() as tape:
        tape.backward(reduce_sum(relu(x)))
    np.testing.assert_array_equal(tape.grad(x), [0.0, 0.0, 1.0])


def test_sigmoid_stable_at_extremes():
    y = sigmoid(Tensor(np.array([-800.0, 0.0, 800.0]))).data
    assert y[0] == 0.0 and y[1] == 0.5 and y[2] == 1.0
    assert np.all(np.isfinite(y))


def test_concat_roundtrip_and_gradient_split():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0]))
    with Tape() as tape:
        y = concat([a, b])
        np.testing.assert_array_equal(y.data, [1.0, 2.0, 3.0])
        tape.backward(reduce_sum(elementwise_mul(y, y)))
    np.testing.assert_array_equal(tape.grad(a), [2.0, 4.0])
    np.testing.assert_array_equal(tape.grad(b), [6.0])
    for parts in ([], [a, Tensor(np.zeros((1, 2)))], [Tensor(np.asarray(1.0))]):
        with pytest.raises(ShapeError):
            concat(parts)


def test_grad_check_passes_on_smooth_function():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=3))

    def f():
        return reduce_sum(tanh(matmul(w, x)))

    report = grad_check(f, {"w": w, "x": x})
    assert report.passed and report.max_error < 1e-5


def test_grad_check_catches_missing_dependency():
    # read one parameter outside the tape: finite differences see it,
    # reverse mode cannot, so the checker must flag the parameter
    p = Tensor(np.array([1.0, 2.0]))

    def f():
        return add(reduce_sum(p), Tensor(np.asarray(p.data.sum())))

    report = grad_check(f, {"p": p})
    assert not report.passed
    assert report.errors["p"] > 0.1
