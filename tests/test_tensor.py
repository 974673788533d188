import math
import sys
import threading

import numpy as np
import pytest

from nornet.tensor import (ShapeError, Tape, Tensor, _mm2, add, block_matmul, concat,
                           elementwise_mul, grad_check, log_sum_exp, matmul,
                           maximum, neg, reduce_sum, relu, reshape, scale,
                           sigmoid, slice_, sub, tanh)


def test_matmul_matches_numpy_dot():
    rng = np.random.default_rng(0)
    for shapes in [((3, 4), (4, 5)), ((4,), (4, 2)), ((3, 4), (4,)), ((5,), (5,))]:
        a = rng.normal(size=shapes[0])
        b = rng.normal(size=shapes[1])
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, a @ b, rtol=1e-12, atol=1e-12)


def test_matmul_exact_on_integers():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(12.0).reshape(3, 4)
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


def _blocks(rng, dims, rows=4):
    return Tensor(rng.normal(size=(rows, sum(dims)))), [Tensor(rng.normal(size=d)) for d in dims]


def test_block_matmul_zero_block_changes_nothing():
    rng = np.random.default_rng(5)
    w, parts = _blocks(rng, (3, 2))
    wide = Tensor(np.concatenate([w.data[:, :3], np.zeros((4, 4)), w.data[:, 3:]], axis=1))
    padded = [parts[0], Tensor(rng.normal(size=4)), parts[1]]
    got = block_matmul(w, parts).data
    assert got.tobytes() == block_matmul(wide, padded).data.tobytes()
    np.testing.assert_allclose(got, w.data @ np.concatenate([p.data for p in parts]),
                               rtol=1e-12, atol=1e-14)


def test_block_matmul_is_invariant_to_block_order():
    # moving a part together with its column block moves no bit
    rng = np.random.default_rng(6)
    dims = (3, 1, 4, 2)
    w, parts = _blocks(rng, dims)
    edges = np.cumsum((0,) + dims)
    cols = [w.data[:, edges[i]:edges[i + 1]] for i in range(len(dims))]
    want = block_matmul(w, parts).data.tobytes()
    for perm in [(3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)]:
        moved = Tensor(np.concatenate([cols[i] for i in perm], axis=1))
        assert block_matmul(moved, [parts[i] for i in perm]).data.tobytes() == want


def test_block_matmul_gradcheck_and_shape_errors():
    rng = np.random.default_rng(7)
    w, parts = _blocks(rng, (2, 3))
    report = grad_check(lambda: reduce_sum(tanh(block_matmul(w, parts))),
                        {"w": w, "p0": parts[0], "p1": parts[1]})
    assert report.passed, report.lines()
    for bad_w, bad_parts in [(w, parts[:1]), (w, []), (Tensor(np.zeros(5)), parts),
                             (w, [parts[0], Tensor(np.zeros((3, 1)))])]:
        with pytest.raises(ShapeError):
            block_matmul(bad_w, bad_parts)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)))


def test_elementwise_shape_checks():
    a, b = Tensor(np.zeros(3)), Tensor(np.zeros(4))
    for op in (add, sub, elementwise_mul, maximum):
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


def test_maximum_tie_gradient_goes_to_first_operand():
    a = Tensor(np.array([1.0, 5.0]))
    b = Tensor(np.array([1.0, 3.0]))
    with Tape() as tape:
        tape.backward(reduce_sum(maximum(a, b)))
    np.testing.assert_array_equal(tape.grad(a), [1.0, 1.0])
    np.testing.assert_array_equal(tape.grad(b), [0.0, 0.0])


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([0.0, -1.0, 2.0]))
    with Tape() as tape:
        tape.backward(reduce_sum(relu(x)))
    np.testing.assert_array_equal(tape.grad(x), [0.0, 0.0, 1.0])


def test_sigmoid_stable_at_extremes():
    y = sigmoid(Tensor(np.array([-800.0, 0.0, 800.0]))).data
    assert y[0] == 0.0 and y[1] == 0.5 and y[2] == 1.0
    assert np.all(np.isfinite(y))


def test_log_sum_exp_matches_oracle_and_survives_large_inputs():
    v = np.array([1000.0, 1000.0])
    got = log_sum_exp(Tensor(v)).item()
    assert got == pytest.approx(1000.0 + np.log(2.0), abs=1e-12)
    # a matrix reduces down its first axis, one value per column
    m = np.random.default_rng(4).normal(size=(3, 4)) * 10
    got = log_sum_exp(Tensor(m)).data
    assert got.shape == (4,)
    for j in range(4):
        assert got[j] == pytest.approx(math.log(sum(math.exp(v) for v in m[:, j])), rel=1e-14)
    with pytest.raises(ShapeError):
        log_sum_exp(Tensor(np.zeros((2, 2, 2))))


def test_slice_gradient_scatters_back():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        tape.backward(reduce_sum(slice_(x, (slice(0, 1), slice(1, 3)))))
    np.testing.assert_array_equal(tape.grad(x), [[0, 1, 1], [0, 0, 0]])
    with pytest.raises(ShapeError):
        slice_(x, slice(0, 2, 2))


def test_concat_roundtrip_and_gradient_split():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0]))
    with Tape() as tape:
        y = concat([a, b])
        np.testing.assert_array_equal(y.data, [1.0, 2.0, 3.0])
        tape.backward(reduce_sum(elementwise_mul(y, y)))
    np.testing.assert_array_equal(tape.grad(a), [2.0, 4.0])
    np.testing.assert_array_equal(tape.grad(b), [6.0])


def test_reshape_preserves_gradient_layout():
    x = Tensor(np.arange(4.0))
    with Tape() as tape:
        y = reshape(x, (2, 2))
        tape.backward(reduce_sum(elementwise_mul(y, y)))
    np.testing.assert_array_equal(tape.grad(x), 2.0 * np.arange(4.0))


def test_operator_sugar_matches_functions():
    a = Tensor(np.array([1.0, -2.0]))
    b = Tensor(np.array([3.0, 4.0]))
    np.testing.assert_array_equal((a + b).data, add(a, b).data)
    np.testing.assert_array_equal((a - b).data, sub(a, b).data)
    np.testing.assert_array_equal((-a).data, neg(a).data)
    np.testing.assert_array_equal((a * b).data, elementwise_mul(a, b).data)
    np.testing.assert_array_equal((2.0 * a).data, scale(a, 2.0).data)
    np.testing.assert_array_equal(a[1].data, slice_(a, 1).data)


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
