"""Tape engine: forward semantics, adjoints vs finite differences, fused records."""

import weakref

import numpy as np
import pytest

from sgnn import ad
from sgnn.errors import ShapeError, TapeError

from helpers import (add_at_scatter, chain_dense, chain_segment_mean, fd_grad, masked_sigmoid,
                     rel_err, value_and_adjoints)


def test_eager_path_returns_plain_arrays():
    a = np.arange(6.0).reshape(2, 3)
    b = np.ones((2, 3))
    out = ad.add(ad.mul(a, 2.0), b)
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, 2.0 * a + 1.0)


def test_backward_before_forward_raises():
    tape = ad.Tape()
    v = tape.var(np.ones(3))
    with pytest.raises(TapeError):
        tape.backward(v, np.ones(3))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ad.matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_identity_grad_passthrough():
    tape = ad.Tape()
    x = tape.var(np.array([1.0, -2.0, 3.0]))
    y = ad.add(x, 0.0)
    g = np.array([0.5, 1.5, -1.0])
    grads = tape.backward(y, g)
    np.testing.assert_array_equal(grads.of(x), g)


def test_scalar_quadratic_grad():
    tape = ad.Tape()
    w = tape.var(np.array([3.0]))
    loss = ad.mul(w, w)
    grads = tape.backward(loss, np.ones(1))
    np.testing.assert_allclose(grads.of(w), np.array([6.0]))


@pytest.mark.parametrize("trial", range(10))
def test_composite_ops_match_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    a0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=(3, 5))
    seg = np.array([0, 1, 0, 1])

    def run(tape):
        if tape is None:
            a, b = a0, b0
        else:
            a, b = tape.var(a0), tape.var(b0)
        y = ad.matmul(a, b)
        y = ad.silu(y)
        y = ad.concat([y, ad.mul(y, y)], axis=-1)
        y = ad.segment_sum(y, seg, 2)
        y = ad.div(y, ad.add(ad.sqrt(ad.sum_(ad.mul(y, y), keepdims=False)), 1.0))
        y = ad.relu(ad.sub(y, 0.05))
        out = ad.sum_(ad.gather(y, np.array([1, 0, 1])))
        return out

    tape = ad.Tape()
    a = tape.var(a0)
    b = tape.var(b0)
    y = ad.matmul(a, b)
    y = ad.silu(y)
    y = ad.concat([y, ad.mul(y, y)], axis=-1)
    y = ad.segment_sum(y, seg, 2)
    y = ad.div(y, ad.add(ad.sqrt(ad.sum_(ad.mul(y, y), keepdims=False)), 1.0))
    y = ad.relu(ad.sub(y, 0.05))
    out = ad.sum_(ad.gather(y, np.array([1, 0, 1])))
    grads = tape.backward(out, np.array(1.0))

    for arr, var in ((a0, a), (b0, b)):
        coords = rng.choice(arr.size, size=min(6, arr.size), replace=False)
        fd = fd_grad(lambda: float(ad.value_of(run(None))), arr, coords)
        got = grads.of(var).reshape(-1)[coords]
        assert rel_err(got, fd) < 1e-6


def test_batched_matmul_grads():
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=(5, 3, 2))
    b0 = rng.normal(size=(5, 2, 4))
    tape = ad.Tape()
    a, b = tape.var(a0), tape.var(b0)
    out = ad.sum_(ad.matmul(a, b))
    grads = tape.backward(out, np.array(1.0))

    def loss():
        return float((a0 @ b0).sum())

    coords = rng.choice(a0.size, size=6, replace=False)
    assert rel_err(grads.of(a).reshape(-1)[coords], fd_grad(loss, a0, coords)) < 1e-6
    coords = rng.choice(b0.size, size=6, replace=False)
    assert rel_err(grads.of(b).reshape(-1)[coords], fd_grad(loss, b0, coords)) < 1e-6


def test_broadcast_add_unbroadcasts_grad():
    tape = ad.Tape()
    x = tape.var(np.ones((4, 3)))
    b = tape.var(np.zeros(3))
    out = ad.sum_(ad.add(x, b))
    grads = tape.backward(out, np.array(1.0))
    np.testing.assert_array_equal(grads.of(b), np.full(3, 4.0))


def test_same_var_used_twice_accumulates():
    tape = ad.Tape()
    x = tape.var(np.array([2.0]))
    out = ad.mul(x, x)
    grads = tape.backward(out, np.ones(1))
    np.testing.assert_allclose(grads.of(x), np.array([4.0]))


def test_second_backward_raises_already_swept():
    tape = ad.Tape()
    x = tape.var(np.array([2.0]))
    out = ad.mul(x, x)
    tape.backward(out, np.ones(1))
    with pytest.raises(TapeError, match="already swept"):
        tape.backward(out, np.ones(1))


def test_determinism_same_seed_same_bits():
    def run():
        rng = np.random.default_rng(42)
        tape = ad.Tape()
        a = tape.var(rng.normal(size=(8, 8)))
        b = tape.var(rng.normal(size=(8, 8)))
        out = ad.sum_(ad.silu(ad.matmul(a, b)))
        grads = tape.backward(out, np.array(1.0))
        return ad.value_of(out).copy(), grads.of(a).copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


# ------------------------------------------------ bit parity with the old kernels

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                    746.0, -746.0, 1e-300, -1e-300])


def _sigmoid_inputs(rng):
    return [
        np.concatenate([rng.normal(scale=s, size=200) for s in (1.0, 30.0, 800.0)] + [SPECIAL]),
        rng.normal(size=(2082, 32)),
        rng.normal(size=(4, 3, 5)),
        np.zeros((0, 7)),
    ]


def test_sigmoid_matches_masked_form_bit_for_bit():
    for x in _sigmoid_inputs(np.random.default_rng(40)):
        assert _same_bits(ad._sigmoid(x), masked_sigmoid(x))


def test_silu_forward_and_backward_match_masked_form_bit_for_bit():
    rng = np.random.default_rng(41)
    with np.errstate(invalid="ignore"):
        for x in _sigmoid_inputs(rng):
            g = rng.normal(size=x.shape)
            tape = ad.Tape()
            v = tape.var(x)
            y = ad.silu(v)
            s = masked_sigmoid(x)
            assert _same_bits(y.value, x * s)
            grad = tape.backward(y, g).of(v)
            assert _same_bits(grad, g * (s * (1.0 + x * (1.0 - s))))


@pytest.mark.parametrize("tail", [(), (3, 2), (3, 0)], ids=["scalar", "3x2", "3x0"])
@pytest.mark.parametrize("kind", ["empty", "repeated", "unsorted"])
def test_scatter_add_matches_add_at_bit_for_bit(tail, kind):
    rng = np.random.default_rng(42)
    rows = 9
    index = {
        "empty": np.zeros(0, dtype=np.int64),
        "repeated": np.array([4, 4, 4, 0, 0, 8, 4, 4], dtype=np.int64),
        "unsorted": rng.integers(0, rows, size=300),
    }[kind]
    # mixed magnitudes make the rounding depend on the order of the sums
    values = rng.normal(size=(index.size,) + tail) * 10.0 ** rng.integers(-8, 9, size=(index.size,) + tail)
    assert _same_bits(ad.scatter_add(index, values, rows), add_at_scatter(index, values, rows))


def test_gather_and_segment_sum_match_add_at_bit_for_bit():
    rng = np.random.default_rng(43)
    index = rng.integers(0, 81, size=2082)
    x = rng.normal(size=(81, 3, 2))
    g = rng.normal(size=(2082, 3, 2)) * 10.0 ** rng.integers(-8, 9, size=(2082, 3, 2))
    tape = ad.Tape()
    v = tape.var(x)
    y = ad.gather(v, index)
    assert _same_bits(tape.backward(y, g).of(v), add_at_scatter(index, g, 81))
    assert _same_bits(ad.segment_sum(g, index, 81), add_at_scatter(index, g, 81))


@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
@pytest.mark.parametrize("tail", [(4,), (3, 2)], ids=["2d", "3d"])
def test_segment_mean_matches_segment_sum_div_chain_bit_for_bit(tail, reuse):
    rng = np.random.default_rng(46)
    segments = rng.integers(0, 7, size=40)
    segments[segments == 3] = 5  # segment 3 receives no rows
    x = rng.normal(size=(40,) + tail) * 10.0 ** rng.integers(-8, 9, size=(40,) + tail)
    divisor = np.maximum(np.bincount(segments, minlength=7).astype(np.float64), 1.0)
    fused = value_and_adjoints(lambda v: ad.segment_sum(v, segments, 7, divisor), [x], 47, reuse)
    chain = value_and_adjoints(lambda v: chain_segment_mean(v, segments, 7, divisor), [x], 47, reuse)
    assert fused[0].shape == (7,) + tail and not fused[0][3].any()
    for got, want in zip(fused, chain):
        assert _same_bits(got, want)
    assert _same_bits(ad.segment_sum(x, segments, 7, divisor), chain[0])


@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
@pytest.mark.parametrize("act", ["silu", "relu", "linear"])
@pytest.mark.parametrize("lead", [(), (7,), (3, 6)], ids=["1d", "2d", "3d"])
def test_dense_matches_matmul_add_activation_chain_bit_for_bit(lead, act, reuse):
    rng = np.random.default_rng(44)
    x = rng.normal(size=lead + (5,)) * 10.0 ** rng.integers(-3, 4, size=lead + (5,))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    if lead:  # a zero row meets the zero bias: a pre-activation of exactly 0
        x.reshape(-1, 5)[0] = 0.0
        b[1] = 0.0
    fused = value_and_adjoints(lambda *v: ad.dense(*v, act), [x, w, b], 45, reuse)
    chain = value_and_adjoints(lambda *v: chain_dense(*v, act), [x, w, b], 45, reuse)
    for got, want in zip(fused, chain):
        assert _same_bits(got, want)
    assert _same_bits(ad.dense(x, w, b, act), chain[0])


def test_dense_is_one_record():
    tape = ad.Tape()
    ad.dense(tape.var(np.ones((2, 3))), tape.var(np.ones((3, 4))), np.zeros(4), "silu")
    assert len(tape._records) == 1


def test_segment_mean_is_one_record():
    tape = ad.Tape()
    ad.segment_sum(tape.var(np.ones((3, 2))), np.array([0, 1, 1]), 2, np.array([1.0, 2.0]))
    assert len(tape._records) == 1


@pytest.mark.parametrize("op", ["mul", "concat", "dense"])
def test_constant_operands_get_no_tape_variable_and_no_adjoint(op):
    tape = ad.Tape()
    x = tape.var(np.ones((2, 3)))
    y = {
        "mul": lambda: ad.mul(x, np.full((2, 3), 2.0)),
        "concat": lambda: ad.concat([np.zeros((2, 1)), x], axis=-1),
        "dense": lambda: ad.dense(x, np.ones((3, 4)), np.zeros(4), "silu"),
    }[op]()
    assert (x._vid, y._vid, tape._next_vid) == (0, 1, 2)
    grads = tape.backward(y, np.ones(y.shape))
    assert sorted(grads._table) == [0]


def test_sweep_frees_each_record_before_the_earlier_ones_run():
    # a later record's closure, and the forward array it alone captured, are
    # dropped before an earlier record's bwd runs; only leaf adjoints remain
    tape = ad.Tape()
    x = tape.var(np.ones(3))
    w = tape.param(np.full(3, 2.0))
    alive_at_first_bwd = []

    def first_bwd(g):
        alive_at_first_bwd.append(captured() is not None)
        return g * 2.0, g

    y = ad.record(x.value * w.value, (x, w), first_bwd)
    kept = np.full(3, 3.0)
    captured = weakref.ref(kept)
    z = ad.mul(y, kept)
    del kept
    assert captured() is not None
    grads = tape.backward(ad.mul(z, z), np.ones(3))
    assert alive_at_first_bwd == [False]
    assert sorted(grads._table) == [x._vid, w._vid]
    np.testing.assert_array_equal(grads.of(y), np.zeros(3))
