import itertools
import math

import numpy as np
import pytest

from nornet.heads import (CrfParams, crf_neg_log_likelihood, crf_viterbi_decode,
                          max_pool_over_time, new_crf_head, new_softmax_head,
                          softmax_cross_entropy)
from nornet.tensor import ShapeError, Tape, Tensor, grad_check, reduce_sum


def _random_crf(k, d, rng):
    head = new_crf_head(d, k, rng)
    head.proj_b.data[...] = rng.normal(size=k)
    head.transitions.data[...] = rng.normal(size=(k + 2, k + 2))
    return head


def _emissions(head, feats):
    return [head.emission(f) for f in feats]


def _enumerate_paths(emissions, tr, k, start, stop):
    """Score every tag path by brute force; returns {path: score}."""
    em = np.array([e.data for e in emissions])
    T = em.shape[0]
    scores = {}
    for path in itertools.product(range(k), repeat=T):
        s = tr[start, path[0]] + em[0, path[0]]
        for t in range(1, T):
            s += tr[path[t - 1], path[t]] + em[t, path[t]]
        s += tr[path[-1], stop]
        scores[path] = s
    return scores


def test_max_pool_matches_numpy():
    rng = np.random.default_rng(50)
    xs = rng.normal(size=(5, 4))
    got = max_pool_over_time([Tensor(x) for x in xs]).data
    np.testing.assert_array_equal(got, xs.max(axis=0))


def test_max_pool_tie_gradient_goes_to_earliest_step():
    a = Tensor(np.array([2.0, 1.0]))
    b = Tensor(np.array([2.0, 3.0]))
    with Tape() as tape:
        tape.backward(reduce_sum(max_pool_over_time([a, b])))
    np.testing.assert_array_equal(tape.grad(a), [1.0, 0.0])
    np.testing.assert_array_equal(tape.grad(b), [0.0, 1.0])


def test_max_pool_rejects_empty():
    with pytest.raises(ValueError):
        max_pool_over_time([])


def test_max_pool_keeps_a_nan_from_any_step_and_the_earliest_negative_zero():
    steps = [Tensor(np.array(v)) for v in ([np.nan, 1.0, -0.0], [1.0, 2.0, 0.0], [0.5, 0.5, 0.0])]
    with Tape() as tape:
        pooled = max_pool_over_time(steps)
        tape.backward(reduce_sum(pooled))
    assert np.isnan(pooled.data[0]) and pooled.data[1] == 2.0
    assert pooled.data[2] == 0.0 and np.signbit(pooled.data[2])
    for step, want in zip(steps, ([1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0])):
        np.testing.assert_array_equal(tape.grad(step), want)


def test_max_pool_shape_errors():
    for shapes in [[(3,), (4,)], [(2, 3), (2, 3)], [()], [(3,), (1, 3)]]:
        with pytest.raises(ShapeError):
            max_pool_over_time([Tensor(np.zeros(s)) for s in shapes])


def test_softmax_cross_entropy_oracle():
    rng = np.random.default_rng(51)
    logits = rng.normal(size=5) * 3
    for label in range(5):
        got = softmax_cross_entropy(Tensor(logits), label).item()
        p = np.exp(logits - logits.max())
        p /= p.sum()
        assert got == pytest.approx(-math.log(p[label]), rel=1e-12)
    # shift-stable: exp(1000) overflows, the loss does not
    assert softmax_cross_entropy(Tensor(np.array([1000.0, 1000.0])), 1).item() == pytest.approx(
        math.log(2.0), abs=1e-12)
    for shape in [(3, 4), (2, 2, 2), ()]:
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros(shape)), 0)


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros(3)), 3)
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros(3)), -1)


def test_softmax_head_gradcheck():
    rng = np.random.default_rng(52)
    head = new_softmax_head(4, 3, rng)
    x = Tensor(rng.normal(size=4))

    def f():
        return softmax_cross_entropy(head.logits(x), 1)

    report = grad_check(f, head.named())
    assert report.passed, report.lines()


def test_crf_nll_matches_enumeration():
    rng = np.random.default_rng(53)
    for k, T in [(2, 3), (3, 4), (4, 2)]:
        head = _random_crf(k, 3, rng)
        feats = [Tensor(rng.normal(size=3)) for _ in range(T)]
        tags = [int(rng.integers(k)) for _ in range(T)]
        em = _emissions(head, feats)
        nll = crf_neg_log_likelihood(em, tags, head).item()

        scores = _enumerate_paths(em, head.transitions.data, k, head.start, head.stop)
        all_scores = np.array(list(scores.values()))
        m = all_scores.max()
        log_z = m + math.log(np.exp(all_scores - m).sum())
        want = log_z - scores[tuple(tags)]
        assert nll == pytest.approx(want, abs=1e-10)


def test_crf_single_tag_loss_is_exactly_zero():
    # with one tag every path is the observed path, so nll must cancel to
    # literal 0.0, which requires score and partition to associate alike
    rng = np.random.default_rng(54)
    head = _random_crf(1, 3, rng)
    for T in (1, 2, 5):
        feats = [Tensor(rng.normal(size=3)) for _ in range(T)]
        em = _emissions(head, feats)
        assert crf_neg_log_likelihood(em, [0] * T, head).item() == 0.0


def test_crf_node_count_does_not_grow_with_tags():
    rng = np.random.default_rng(60)
    counts = []
    for k in (1, 3, 9):
        head = _random_crf(k, 3, rng)
        em = [Tensor(v) for v in rng.normal(size=(4, k))]
        with Tape() as tape:
            crf_neg_log_likelihood(em, [0, k - 1, 0, k - 1], head)
        counts.append(sum(node.kind != "leaf" for node in tape.nodes))
    assert counts[0] == counts[1] == counts[2]


def test_crf_nll_is_positive_with_alternatives():
    rng = np.random.default_rng(55)
    head = _random_crf(3, 3, rng)
    feats = [Tensor(rng.normal(size=3)) for _ in range(4)]
    em = _emissions(head, feats)
    assert crf_neg_log_likelihood(em, [0, 1, 2, 0], head).item() > 0.0


def test_crf_input_validation():
    rng = np.random.default_rng(56)
    head = _random_crf(3, 3, rng)
    em = _emissions(head, [Tensor(rng.normal(size=3)) for _ in range(2)])
    with pytest.raises(ValueError):
        crf_neg_log_likelihood(em, [0], head)      # length mismatch
    with pytest.raises(ValueError):
        crf_neg_log_likelihood(em, [0, 3], head)   # tag out of range
    with pytest.raises(ValueError):
        crf_neg_log_likelihood(em, [], head)
    with pytest.raises(ValueError):
        crf_neg_log_likelihood([Tensor(np.zeros(2))] * 2, [0, 1], head)   # 2 tags, head has 3
    with pytest.raises(ValueError):
        crf_viterbi_decode([], head)


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(57)
    for k, T in [(2, 4), (3, 3), (4, 4)]:
        head = _random_crf(k, 3, rng)
        feats = [Tensor(rng.normal(size=3)) for _ in range(T)]
        em = _emissions(head, feats)
        path, score = crf_viterbi_decode(em, head)

        scores = _enumerate_paths(em, head.transitions.data, k, head.start, head.stop)
        best = max(scores.values())
        assert score == pytest.approx(best, abs=1e-10)
        assert scores[tuple(path)] == pytest.approx(best, abs=1e-10)


def test_viterbi_tie_breaks_to_lowest_tag_index():
    # all-zero scores make every path equal; argmax must settle on tag 0
    head = CrfParams(proj_w=Tensor(np.zeros((3, 2))), proj_b=Tensor(np.zeros(3)),
                     transitions=Tensor(np.zeros((5, 5))))
    em = [Tensor(np.zeros(3)) for _ in range(4)]
    path, score = crf_viterbi_decode(em, head)
    assert path == [0, 0, 0, 0]
    assert score == 0.0


def test_crf_gradient_is_expected_minus_observed_counts():
    # d nll / d score-term = P(term is on the path) - [term is on the gold path],
    # with P found by enumerating every path
    rng = np.random.default_rng(61)
    worst = 0.0
    for k, T in itertools.product(range(1, 5), range(1, 5)):
        head = _random_crf(k, 3, rng)
        em = [Tensor(v) for v in rng.normal(size=(T, k))]
        tags = [int(t) for t in rng.integers(k, size=T)]
        with Tape() as tape:
            tape.backward(crf_neg_log_likelihood(em, tags, head))
        scores = _enumerate_paths(em, head.transitions.data, k, head.start, head.stop)
        vals = np.array(list(scores.values()))
        probs = np.exp(vals - vals.max())
        probs /= probs.sum()
        want_em = np.zeros((T, k))
        want_tr = np.zeros(head.transitions.shape)
        for path, p in [*zip(scores, probs), (tuple(tags), -1.0)]:
            want_em[np.arange(T), path] += p
            for i, j in zip([head.start, *path], [*path, head.stop]):
                want_tr[i, j] += p
        got_em = np.array([tape.grad(e) for e in em])
        worst = max(worst, np.abs(got_em - want_em).max(),
                    np.abs(tape.grad(head.transitions) - want_tr).max())
    assert worst < 1e-10, worst


def test_crf_gradcheck():
    rng = np.random.default_rng(58)
    head = _random_crf(3, 4, rng)
    feats = [Tensor(rng.normal(size=4)) for _ in range(3)]

    def f():
        return crf_neg_log_likelihood(_emissions(head, feats), [0, 2, 1], head)

    report = grad_check(f, head.named())
    assert report.passed, report.lines()


def test_head_constructors_validate():
    rng = np.random.default_rng(59)
    with pytest.raises(ValueError):
        new_softmax_head(4, 1, rng)
    with pytest.raises(ValueError):
        new_crf_head(4, 0, rng)


def test_heads_read_a_matrix_as_its_columns():
    # the matrix ops give the bits of their per-step forms: one emission
    # column is its one-column product, the pool and both CRF functions see
    # the same numbers as from a list
    rng = np.random.default_rng(62)
    head = _random_crf(4, 5, rng)
    feats = rng.normal(size=(5, 6))
    em = head.emission(Tensor(feats))
    steps = [head.emission(Tensor(f)) for f in feats.T]
    assert em.data.shape == (4, 6)
    assert em.data.tobytes() == np.stack([e.data for e in steps], axis=1).tobytes()
    assert max_pool_over_time(em).data.tobytes() == max_pool_over_time(steps).data.tobytes()
    tags = [0, 3, 1, 1, 2, 0]
    assert (crf_neg_log_likelihood(em, tags, head).data.tobytes()
            == crf_neg_log_likelihood(steps, tags, head).data.tobytes())
    assert crf_viterbi_decode(em, head) == crf_viterbi_decode(steps, head)
    with pytest.raises(ShapeError):
        crf_viterbi_decode(Tensor(np.zeros((3, 6))), head)   # 3 rows, head has 4 tags


def test_matrix_emission_gradients():
    rng = np.random.default_rng(63)
    head = _random_crf(3, 4, rng)
    feats = Tensor(rng.normal(size=(4, 5)))
    report = grad_check(lambda: crf_neg_log_likelihood(head.emission(feats), [0, 2, 1, 1, 0], head),
                        {**head.named(), "feats": feats})
    assert report.passed, report.lines()
