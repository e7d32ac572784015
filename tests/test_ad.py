"""Tape engine: forward semantics, adjoints vs finite differences, fused records."""

import tracemalloc
import types
import weakref

import numpy as np
import pytest

from sgnn import ad
from sgnn.errors import ShapeError, TapeError

from helpers import (add_at_scatter, chain_dense, chain_segment_mean, fd_grad, masked_sigmoid,
                     rel_err, relu, silu, sqrt, value_and_adjoints)


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
        y = silu(y)
        y = ad.concat([y, ad.mul(y, y)], axis=-1)
        y = ad.segment_sum(y, seg, 2)
        y = ad.div(y, ad.add(sqrt(ad.sum_(ad.mul(y, y), keepdims=False)), 1.0))
        y = relu(ad.sub(y, 0.05))
        out = ad.sum_(ad.gather(y, np.array([1, 0, 1])))
        return out

    tape = ad.Tape()
    a = tape.var(a0)
    b = tape.var(b0)
    y = ad.matmul(a, b)
    y = silu(y)
    y = ad.concat([y, ad.mul(y, y)], axis=-1)
    y = ad.segment_sum(y, seg, 2)
    y = ad.div(y, ad.add(sqrt(ad.sum_(ad.mul(y, y), keepdims=False)), 1.0))
    y = relu(ad.sub(y, 0.05))
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
        out = ad.sum_(ad.mlp(a, [(b, np.zeros(8), "silu")]))
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


def _silu_layer(x, g, layer=ad.mlp):
    """One SiLU layer on the pre-activations ``x @ [[1]] + [-0]`` of each entry
    of ``x``, taped: its value and the adjoint of ``x`` under the output
    adjoint ``g``, both shaped as ``x``."""
    tape = ad.Tape()
    v = tape.var(x.reshape(-1, 1))
    out = layer(v, [(np.ones((1, 1)), np.array([-0.0]), "silu")])
    adj = tape.backward(out, g.reshape(-1, 1)).of(v)
    return ad.value_of(out).reshape(x.shape), adj.reshape(x.shape)


def test_silu_forward_and_backward_match_reference_bit_for_bit():
    # ``ad.mlp``'s SiLU layers against the SiLU record of ``tests/helpers.py``
    rng = np.random.default_rng(41)
    with np.errstate(invalid="ignore"):  # -inf and nan give nan
        for x in _sigmoid_inputs(rng):
            g = rng.normal(size=x.shape)
            got, want = _silu_layer(x, g), _silu_layer(x, g, chain_dense)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
            eager = ad.mlp(x.reshape(-1, 1), [(np.ones((1, 1)), np.array([-0.0]), "silu")])
            assert _same_bits(eager.reshape(x.shape), got[0])


def test_silu_forward_and_backward_are_accurate_against_masked_sigmoid():
    rng = np.random.default_rng(40)
    x = np.concatenate([rng.uniform(-760.0, 760.0, 60_000), rng.normal(scale=3.0, size=60_000)])
    g = rng.normal(size=x.shape)
    y, adj = _silu_layer(x, g)
    s = masked_sigmoid(x)
    want = x * s
    eps = np.finfo(np.float64).eps
    big = np.abs(want) > 1e-290
    assert np.all(np.abs(y - want)[big] <= 4.0 * eps * np.abs(want[big]))
    assert np.all(np.abs(y[~big]) <= 1e-290)
    slope = s * (1.0 + x * (1.0 - s))
    assert np.all(np.abs(adj - g * slope) <= 4.0 * eps * (1.0 + np.abs(x)) * np.abs(g))


def test_silu_raises_no_floating_point_error_on_finite_input():
    big = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.concatenate([
        SPECIAL[np.isfinite(SPECIAL)],
        [big, -big, tiny, -tiny, 709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 1e308, -1e308],
        np.random.default_rng(48).normal(scale=400.0, size=1000),
    ])
    # adjoints above 1 catch a backward that multiplies by g before dividing by d
    g = np.random.default_rng(49).normal(scale=1e3, size=x.shape)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        y, adj = _silu_layer(x, g)
    assert np.isfinite(y).all() and np.isfinite(adj).all()


def test_silu_edge_values():
    below = np.array([-709.79, -710.0, -745.0, -1e5, -np.finfo(np.float64).max])
    y, _ = _silu_layer(below, np.ones_like(below))
    assert _same_bits(y, np.full_like(below, -0.0))
    with np.errstate(invalid="ignore"):
        y, _ = _silu_layer(np.array([np.inf, -np.inf, np.nan]), np.ones(3))
    assert y[0] == np.inf and np.isnan(y[1:]).all()


def test_silu_derivative_matches_central_differences():
    # -1.2785 is near the derivative's zero
    x = np.array([-40.0, -1.2785, 0.0, 3.0, 40.0])
    _, adj = _silu_layer(x, np.ones_like(x))
    fd = fd_grad(lambda: float(_silu_layer(x, np.ones_like(x))[0].sum()), x, range(x.size))
    np.testing.assert_allclose(adj, fd, rtol=0.0, atol=1e-9)


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
    # one layer of the MLP record against one matmul, add and activation
    rng = np.random.default_rng(44)
    x = rng.normal(size=lead + (5,)) * 10.0 ** rng.integers(-3, 4, size=lead + (5,))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    if lead:  # a zero row meets the zero bias: a pre-activation of exactly 0
        x.reshape(-1, 5)[0] = 0.0
        b[1] = 0.0
    fused = value_and_adjoints(lambda x, w, b: ad.mlp(x, [(w, b, act)]), [x, w, b], 45, reuse)
    chain = value_and_adjoints(lambda x, w, b: chain_dense(x, [(w, b, act)]), [x, w, b], 45, reuse)
    for got, want in zip(fused, chain):
        assert _same_bits(got, want)
    assert _same_bits(ad.mlp(x, [(w, b, act)]), chain[0])


# x's shape, the activation of each layer, and what is special about the case
MLP_CASES = {
    "1-layer-relu-1d": ((5,), ["relu"], ""),
    "2-layer-silu-linear-2d": ((7, 5), ["silu", "linear"], ""),
    "3-layer-zero-row-2d": ((7, 5), ["silu", "relu", "linear"], "zero row"),
    "3-layer-relu-silu-1d": ((5,), ["relu", "silu", "linear"], ""),
    "constant-input": ((7, 5), ["silu", "relu", "linear"], "constant x"),
    "constant-weights": ((7, 5), ["relu", "silu"], "constant w"),
    "applied-twice": ((7, 5), ["silu", "relu"], "twice"),
    "zero-rows": ((0, 5), ["silu", "relu", "linear"], ""),
}


@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
@pytest.mark.parametrize("case", list(MLP_CASES))
def test_mlp_record_matches_per_layer_chain_bit_for_bit(case, reuse):
    shape, acts, kind = MLP_CASES[case]
    rng = np.random.default_rng(48)
    dims = [5] + [int(d) for d in rng.integers(2, 7, size=len(acts))]
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    x2 = rng.normal(size=shape)
    ws = [rng.normal(size=(i, o)) for i, o in zip(dims, dims[1:])]
    bs = [rng.normal(size=o) for o in dims[1:]]
    if kind == "zero row":  # a pre-activation of exactly 0 in the first layer
        x[0] = 0.0
        bs[0][1] = 0.0
    taped = {"constant x": ws + bs, "constant w": [x] + bs, "twice": [x, x2] + ws + bs}.get(
        kind, [x] + ws + bs)

    def run(stack, *vs):
        var = {id(a): v for a, v in zip(taped, vs)}
        pick = lambda a: var.get(id(a), a)  # noqa: E731
        layers = [(pick(w), pick(b), act) for w, b, act in zip(ws, bs, acts)]
        y = stack(pick(x), layers)
        return ad.concat([y, stack(pick(x2), layers)], axis=0) if kind == "twice" else y

    fused = value_and_adjoints(lambda *vs: run(ad.mlp, *vs), taped, 49, reuse)
    chain = value_and_adjoints(lambda *vs: run(chain_dense, *vs), taped, 49, reuse)
    assert len(fused) == len(taped) + 1
    for got, want in zip(fused, chain):
        assert _same_bits(got, want)


def test_mlp_record_gives_no_partial_to_constants():
    # constant x and first layer: the backward walks the second layer only
    rng = np.random.default_rng(50)
    tape = ad.Tape()
    w1, b1 = tape.param(rng.normal(size=(4, 2))), tape.param(rng.normal(size=2))
    y = ad.mlp(rng.normal(size=(6, 3)), [(rng.normal(size=(3, 4)), np.zeros(4), "silu"),
                                         (w1, b1, "linear")])
    parts = tape._records[-1][2](np.ones(y.shape))
    assert parts[:3] == [None, None, None]
    assert parts[3].shape == (4, 2) and parts[4].shape == (2,)


def _backward_peak(stack, x, layers, g):
    tracemalloc.start()
    try:
        tape = ad.Tape()
        y = stack(tape.var(x), [(tape.param(w), tape.param(b), act) for w, b, act in layers])
        tracemalloc.reset_peak()
        tape.backward(y, g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mlp_record_backward_peaks_no_higher_than_the_chain():
    # a stage-3 sigma (108 -> 32 -> 32 -> 28) on a criterion-8 frame's 2,082
    # within-object edges; the input partial is the widest array, so a backward
    # that kept every layer's arrays until it returned would peak above the chain
    rng = np.random.default_rng(51)
    dims, acts = [108, 32, 32, 28], ["silu", "silu", "linear"]
    layers = [(rng.normal(size=(i, o)), rng.normal(size=o), act)
              for i, o, act in zip(dims, dims[1:], acts)]
    x = rng.normal(size=(2082, 108))
    g = rng.normal(size=(2082, 28))
    record = _backward_peak(ad.mlp, x, layers, g)
    chain = _backward_peak(chain_dense, x, layers, g)
    assert record <= chain


def test_dense_is_one_record():
    # a whole stack of dense layers is one record
    tape = ad.Tape()
    ad.mlp(tape.var(np.ones((2, 3))), [(tape.var(np.ones((3, 4))), np.zeros(4), "silu"),
                                       (np.ones((4, 4)), np.zeros(4), "relu"),
                                       (np.ones((4, 1)), tape.var(np.zeros(1)), "linear")])
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
        "dense": lambda: ad.mlp(x, [(np.ones((3, 4)), np.zeros(4), "silu")]),
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


def _kept_arrays(tape) -> list:
    """Every array the tape's records reach, through lists, tuples and
    closure cells (not a function's globals), with the bases of views."""
    seen, found, todo = set(), [], [tape._records]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            todo.append(obj.base)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, types.FunctionType):
            todo.extend(c.cell_contents for c in obj.__closure__ or ())
    return found


@pytest.mark.parametrize("taped", ["all", "from-layer-2"])
def test_taped_mlp_frees_pre_activations_denominators_and_output(taped):
    # SiLU, SiLU, linear: the record keeps each layer's input and each SiLU's
    # derivative factor (1 + x - y) / d, never x, d = 1 + e^-x or the output;
    # from layer 2 (x and the first layer constant) it keeps nothing for the
    # first layer
    rng = np.random.default_rng(53)
    x = rng.normal(size=(9, 5))
    layers = [(rng.normal(size=(i, o)), rng.normal(size=o), act)
              for i, o, act in [(5, 6, "silu"), (6, 4, "silu"), (4, 3, "linear")]]
    tape = ad.Tape()
    first = 0 if taped == "all" else 1
    args = [(tape.param(w), tape.param(b), act) if k >= first else (w, b, act)
            for k, (w, b, act) in enumerate(layers)]
    y = ad.mlp(tape.var(x) if first == 0 else x, args)
    out = weakref.ref(y.value)
    del y
    assert out() is None
    dropped, h = [], x  # the pre-activations and denominators, by value
    for w, b, act in layers:
        pre = h @ w + b
        d = 1.0 + np.exp(-pre)
        dropped += [pre] if act == "linear" else [pre, d]
        h = pre / d if act == "silu" else pre
    kept = [a for a in _kept_arrays(tape) if a.dtype == np.float64]
    for a in kept:
        assert not any(a.shape == b.shape and np.allclose(a, b) for b in dropped)
    sizes = sorted(a.size for a in kept if a.base is None and all(a is not p for p, _, _ in layers))
    # x, then per SiLU layer its input and factor, then the linear layer's input
    assert sizes == sorted([9 * 6, 9 * 4, 9 * 4] + ([] if first else [9 * 5, 9 * 6]))


@pytest.mark.parametrize("op", ["narrow", "reshape", "add", "sub", "mul", "div", "matmul"])
def test_records_keep_no_operand_their_backward_does_not_read(op):
    # a slice, a reshape and a sum read only shapes; a product or quotient
    # reads a's value only for b's partial, and b is constant here
    tape = ad.Tape()
    a, b = np.ones((4, 6)), np.full(6, 2.0)
    freed = [weakref.ref(a)] + ([weakref.ref(b)] if op in ("add", "sub") else [])
    y = {
        "narrow": lambda: ad.narrow(tape.var(a), -1, 1, 3),
        "reshape": lambda: ad.reshape(tape.var(a), (6, 4)),
        "add": lambda: ad.add(tape.var(a), tape.var(b)),
        "sub": lambda: ad.sub(tape.var(a), b),
        "mul": lambda: ad.mul(tape.var(a), b),
        "div": lambda: ad.div(tape.var(a), b),
        "matmul": lambda: ad.matmul(tape.var(a), b.reshape(6, 1)),
    }[op]()
    del a, b, y  # a reshape's output is a view of its operand
    assert all(ref() is None for ref in freed)
