"""Geometric core: stacking, scalarization equivariance, transforms, witness."""

import numpy as np
import pytest

from sgnn import ad
from sgnn.errors import ContractError, GramMismatchError, ShapeError
from sgnn.geometry import (
    GRAM_NORM_EPS,
    Gravity,
    SubgroupTransform,
    check_equivariance,
    horizontal_axis_rotation,
    lemma5_witness,
    normalized_gram,
    ominus,
    random_orthogonal,
    random_subgroup_transform,
    sample_subgroup_transform,
    scalarize_subequivariant,
    triangle,
)
from sgnn.mlp import MLP, mlp_forward, mlp_grads, mlp_init

from helpers import (
    adjoint_seed,
    chain_normalized_gram,
    chain_ominus,
    fd_grad,
    rel_err,
    square_gram,
    two_record_gram,
    value_and_adjoints,
)

GRAVITY = Gravity()


def constant_mlp(values, in_dim: int) -> MLP:
    """A zero-weight linear MLP: the flat ``values`` whatever its input."""
    flat = np.asarray(values, dtype=float).reshape(-1)
    return MLP([np.zeros((in_dim, flat.size))], [flat], ["linear"])


def scalarize_one(z, h, sigma, eta=None, **kwargs):
    """One (3, m) stack through the batched scalarization."""
    y, _ = scalarize_subequivariant(z[None], h[None], sigma, eta, GRAVITY, **kwargs)
    return y[0]


# ------------------------------------------------------------------- ominus

def test_ominus_direct_read():
    zi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    zj = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    out = ominus(zi, zj)
    want = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(out, want)


def test_ominus_self():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 2))
    out = ominus(z, z)
    np.testing.assert_array_equal(out[:, 0], np.zeros(3))
    np.testing.assert_array_equal(out[:, 1], z[:, 1])
    np.testing.assert_array_equal(out[:, 2], z[:, 1])


def test_ominus_translation_invariance_exact():
    # dyadic-rational coordinates keep the additions exact, so the structural
    # cancellation of the common translation is visible as bit equality
    rng = np.random.default_rng(1)
    zi = rng.integers(-128, 128, size=(3, 3)) / 16.0
    zj = rng.integers(-128, 128, size=(3, 2)) / 16.0
    t = rng.integers(-128, 128, size=3) / 16.0
    zi_t = zi.copy()
    zj_t = zj.copy()
    zi_t[:, 0] += t
    zj_t[:, 0] += t
    np.testing.assert_array_equal(ominus(zi, zj), ominus(zi_t, zj_t))


def test_ominus_zero_channel_error():
    with pytest.raises(ShapeError):
        ominus(np.zeros((3, 0)), np.zeros((3, 1)))


@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
@pytest.mark.parametrize("const_zj", [False, True], ids=["taped_zj", "constant_zj"])
@pytest.mark.parametrize("lead", [(), (5,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("m", [1, 2, 3], ids=["m1", "m2", "m3"])
def test_fused_ominus_matches_six_record_chain_bit_for_bit(m, lead, const_zj, reuse):
    # zi has m channels and zj 4 - m, so a partial routed to the wrong
    # operand's channels changes a shape or a value; the seeded adjoints hold
    # no zeros, whose sign the chain's zero padding would change
    rng = np.random.default_rng(22)
    zi = rng.normal(size=lead + (3, m))
    zj = rng.normal(size=lead + (3, 4 - m))

    def run(op):
        if const_zj:
            return value_and_adjoints(lambda v: op(v, zj), [zi], 23, reuse)
        return value_and_adjoints(op, [zi, zj], 23, reuse)

    chain = run(chain_ominus)
    for got, want in zip(run(ominus), chain):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert ominus(zi, zj).tobytes() == chain[0].tobytes()


def test_ominus_is_one_record():
    tape = ad.Tape()
    ominus(tape.var(np.ones((4, 3, 2))), tape.var(np.zeros((4, 3, 2))))
    assert len(tape._records) == 1


# ------------------------------------------------------------- scalarization

def test_equivariant_identity_selector():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 2))
    sigma = constant_mlp([[1.0], [0.0]], 3)  # the triangle of 2 channels
    out = scalarize_one(z, np.zeros(0), sigma, out_channels=1)
    np.testing.assert_allclose(out[:, 0], z[:, 0], atol=1e-14)


def test_equivariant_zero_stack_gives_zero():
    sigma_rng = np.random.default_rng(3)
    net = mlp_init(sigma_rng, [3 + 1, 8, 2 * 1])
    out = scalarize_one(np.zeros((3, 2)), np.ones(1), net)
    np.testing.assert_array_equal(out, np.zeros((3, 1)))


def test_equivariant_commutes_with_full_orthogonal_group():
    rng = np.random.default_rng(4)
    net = mlp_init(rng, [6 + 2, 16, 3 * 2])
    z0 = rng.normal(size=(3, 3))
    h0 = rng.normal(size=2)

    def fn(geo, sca):
        y = scalarize_one(geo[0], sca[0], net, out_channels=2)
        return [y], []

    dev = check_equivariance(fn, ([z0], [h0]), group="o3", trials=100, seed=5)
    assert dev < 1e-9


def test_subequivariant_pure_gravity_with_empty_stack():
    sigma = constant_mlp([[1.0]], 1 + 2)
    eta = constant_mlp([0.7], 2)
    out = scalarize_one(np.zeros((3, 0)), np.ones(2), sigma, eta)
    np.testing.assert_allclose(out[:, 0], 0.7 * GRAVITY.direction, atol=1e-14)


def test_subequivariant_channel_selector():
    sigma = constant_mlp([[1.0], [0.0]], 3 + 1)  # keep channel 0, drop gravity
    eta = constant_mlp([1.0], 1)
    z = np.array([[1.0], [0.0], [0.0]])
    out = scalarize_one(z, np.zeros(1), sigma, eta)
    np.testing.assert_allclose(out, z, atol=1e-14)


def _random_sub_block(rng, m=2, nh=2, out_channels=1):
    sigma = mlp_init(rng, [(m + 1) * (m + 2) // 2 + nh, 16, (m + 1) * out_channels])
    eta = mlp_init(rng, [nh, 8, 1])
    return sigma, eta


def test_subequivariant_commutes_with_axis_subgroup():
    rng = np.random.default_rng(6)
    sigma, eta = _random_sub_block(rng)
    z0 = rng.normal(size=(3, 2))
    h0 = rng.normal(size=2)

    def fn(geo, sca):
        y = scalarize_one(geo[0], sca[0], sigma, eta)
        return [y], []

    dev = check_equivariance(fn, ([z0], [h0]), group="og3", trials=200, seed=7)
    assert dev < 1e-9


def test_subequivariant_breaks_under_horizontal_rotation():
    rng = np.random.default_rng(8)
    sigma, eta = _random_sub_block(rng)
    worst = 0.0
    for _ in range(20):
        z = rng.normal(size=(3, 2))
        h = rng.normal(size=2)
        O = horizontal_axis_rotation(rng)
        y0 = scalarize_one(z, h, sigma, eta)
        y1 = scalarize_one(O @ z, h, sigma, eta)
        worst = max(worst, float(np.max(np.abs(y1 - O @ y0))))
    assert worst > 1e-3


def test_subequivariant_rejects_non_unit_gravity():
    with pytest.raises(ContractError):
        Gravity(direction=np.array([0.0, 0.0, -2.0]))


@pytest.mark.parametrize("knobs", [
    dict(direction=np.array([np.nan, 0.0, 0.0])),
    dict(direction=np.array([0.0, np.inf, 0.0])),
    dict(magnitude=np.nan),
    dict(magnitude=np.inf),
], ids=["direction-nan", "direction-inf", "magnitude-nan", "magnitude-inf"])
def test_gravity_rejects_non_finite(knobs):
    with pytest.raises(ContractError, match="finite"):
        Gravity(**knobs)


@pytest.mark.parametrize("field", ["O", "t"])
def test_subgroup_transform_rejects_non_finite(field):
    parts = {"O": np.eye(3), "t": np.zeros(3)}
    parts[field] = np.full_like(parts[field], np.nan)
    with pytest.raises(ContractError, match="non-finite"):
        SubgroupTransform(**parts).validate(GRAVITY)


def test_gram_normalization_scale_invariance():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(3, 4))
    for c in (0.1, 3.0, 250.0):
        g1 = normalized_gram(z)
        g2 = normalized_gram(c * z)
        np.testing.assert_allclose(g1, g2, atol=1e-12, rtol=0.0)


def test_gram_normalization_scale_invariance_with_gravity_channel():
    # scaling the stack and the gated gravity column together leaves the
    # normalized Gram unchanged, so sigma sees scale-free inputs
    rng = np.random.default_rng(19)
    z = rng.normal(size=(3, 2))
    eta = 0.37
    aug = np.concatenate([z, eta * GRAVITY.direction.reshape(3, 1)], axis=1)
    for c in (0.2, 7.0, 1500.0):
        aug_scaled = np.concatenate(
            [c * z, c * eta * GRAVITY.direction.reshape(3, 1)], axis=1
        )
        np.testing.assert_allclose(
            normalized_gram(aug), normalized_gram(aug_scaled), atol=1e-12, rtol=0.0
        )


def test_gram_normalization_skips_tiny_norm():
    z = np.zeros((3, 2))
    g = normalized_gram(z)
    np.testing.assert_array_equal(g, np.zeros(3))


def _gram_stack(shape, zero_rows=()):
    rng = np.random.default_rng(20)
    z = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    for r in zero_rows:
        z[r] = 0.0
    return z


GRAM_CASES = {
    "batched": ((6, 3, 4), (), True),
    "unbatched": ((3, 4), (), True),
    "batched_m1": ((6, 3, 1), (), True),
    "unbatched_m1": ((3, 1), (), True),
    "zero_rows": ((6, 3, 3), (1, 4), True),
    "all_zero": ((3, 2), (slice(None),), True),
    "unnormalized": ((6, 3, 3), (), False),
}


@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
@pytest.mark.parametrize("case", list(GRAM_CASES))
def test_fused_gram_matches_ten_record_chain_bit_for_bit(case, reuse):
    # the values, on a tape and eager; the adjoints are compared below
    shape, zero_rows, normalize = GRAM_CASES[case]
    z = _gram_stack(shape, zero_rows)
    fused = value_and_adjoints(lambda v: normalized_gram(v, normalize), [z], 21, reuse)[0]
    chain = value_and_adjoints(lambda v: chain_normalized_gram(v, normalize), [z], 21, reuse)[0]
    assert fused.dtype == chain.dtype and fused.shape == chain.shape
    assert fused.tobytes() == chain.tobytes()
    eager = normalized_gram(z, normalize)
    assert eager.tobytes() == chain.tobytes()


@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "multiplicity"])
@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "unnormalized"])
@pytest.mark.parametrize("shape", [(6, 3, 4), (3, 4)], ids=["batched", "unbatched"])
def test_packed_gram_matches_triangle_then_concat_bit_for_bit(shape, normalize, weighted, reuse):
    # [T | h] as one record: its value, on a tape and eager, and the z and h
    # adjoints equal those of the triangle record followed by a concat
    z = _gram_stack(shape)
    h = np.random.default_rng(22).normal(size=shape[:-2] + (5,))
    c = np.array([2.0, 1.0, 3.0, 1.0]) if weighted else None
    packed = value_and_adjoints(lambda v, s: normalized_gram(v, normalize, c, s), [z, h], 21,
                                reuse)
    chain = value_and_adjoints(lambda v, s: two_record_gram(v, s, normalize, c), [z, h], 21,
                               reuse)
    for got, want in zip(packed, chain):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert normalized_gram(z, normalize, c, h).tobytes() == chain[0].tobytes()


@pytest.mark.parametrize("shape, scalars", [
    ((6, 3, 4), (5, 2)),
    ((6, 3, 4), (2,)),
    ((6, 3, 4), (1, 6, 2)),
    ((3, 4), (1, 2)),
    ((3, 4), ()),
])
def test_packed_gram_rejects_scalars_off_the_stack_batch_shape(shape, scalars):
    with pytest.raises(ShapeError, match="batch shape"):
        normalized_gram(np.ones(shape), h=np.ones(scalars))


def _stack_norms(a):
    """Frobenius norm of each (r, c) matrix of a (..., r, c) array, flat."""
    return np.linalg.norm(a.reshape((-1,) + a.shape[-2:]), axis=(-2, -1))


def _gram_norms(z):
    return _stack_norms(np.swapaxes(z, -1, -2) @ z)


def _triangle_norms(g):
    """Euclidean norm of each triangle of a (..., T) array, flat."""
    return np.linalg.norm(g.reshape(-1, g.shape[-1]), axis=-1)


@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
@pytest.mark.parametrize("case", list(GRAM_CASES))
def test_fused_gram_adjoints_match_ten_record_chain(case, reuse):
    # the analytic backward rounds differently from the chain's; each stack's
    # adjoints agree to 1e-12 of its scale, the larger of the chain's largest
    # partial and |g| |z| / |G| (|g| of the triangle adjoint).  The latter is the scale of an m = 1 stack,
    # whose true adjoint is 0 and whose chain adjoint is round-off
    shape, zero_rows, normalize = GRAM_CASES[case]
    z = _gram_stack(shape, zero_rows)
    _, fused = value_and_adjoints(lambda v: normalized_gram(v, normalize), [z], 21, reuse)
    y, chain = value_and_adjoints(lambda v: chain_normalized_gram(v, normalize), [z], 21, reuse)
    assert fused.dtype == chain.dtype and fused.shape == chain.shape
    assert np.isfinite(fused).all()
    g = adjoint_seed(y.size + reuse * z.size, 21)[: y.size].reshape(y.shape)
    gram_norm = _gram_norms(z)
    denom = np.where(normalize & (gram_norm >= GRAM_NORM_EPS), gram_norm, 1.0)
    stacks = (-1,) + z.shape[-2:]
    scale = np.maximum(
        np.abs(chain).reshape(stacks).max(axis=(-2, -1)),
        _triangle_norms(g) * _stack_norms(z) / denom,
    )
    err = np.abs(fused - chain).reshape(stacks).max(axis=(-2, -1))
    assert (err <= 1e-12 * scale).all()


@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "unnormalized"])
@pytest.mark.parametrize("shape", [(4, 3, 3), (3, 4)], ids=["batched", "unbatched"])
def test_gram_adjoint_matches_finite_differences(shape, normalize):
    rng = np.random.default_rng(24)
    z = rng.normal(size=shape)
    w = rng.normal(size=shape[:-2] + (shape[-1] * (shape[-1] + 1) // 2,))
    tape = ad.Tape()
    v = tape.var(z)
    got = tape.backward(normalized_gram(v, normalize), w).of(v)
    want = fd_grad(lambda: float(np.sum(w * normalized_gram(z, normalize))), z, range(z.size))
    assert rel_err(got.reshape(-1), want) <= 1e-6


@pytest.mark.parametrize("case", ["batched", "unbatched", "batched_m1", "unbatched_m1", "zero_rows"])
def test_gram_adjoint_is_orthogonal_to_the_stack(case):
    # a normalized Gram is homogeneous of degree 0 in z, so by Euler's
    # theorem sum(g_z * z) = 0 on every stack that is scaled, up to round-off
    # of the size of |g| |z|^2 / |G|
    shape, zero_rows, _ = GRAM_CASES[case]
    z = _gram_stack(shape, zero_rows)
    y, g_z = value_and_adjoints(normalized_gram, [z], 21, False)
    g = adjoint_seed(y.size, 21).reshape(y.shape)
    gram_norm = _gram_norms(z)
    scaled = gram_norm >= GRAM_NORM_EPS
    assert scaled.any()
    radial = np.abs((g_z * z).reshape((-1,) + z.shape[-2:]).sum(axis=(-2, -1)))[scaled]
    scale = (_triangle_norms(g) * _stack_norms(z) ** 2)[scaled] / gram_norm[scaled]
    assert (radial <= 1e-12 * scale).all()


# (shape, zero stacks, per-channel multiplicity); the last is the object-aware
# edge stack's with gravity, whose norm counts v_r and v_s twice
WEIGHTED_GRAM_CASES = {
    "batched": ((6, 3, 4), (), (1, 2, 1, 3)),
    "unbatched": ((3, 3), (), (2, 1, 1)),
    "zero_rows": ((6, 3, 3), (1, 4), (1, 3, 2)),
    "edge_stack": ((5, 3, 8), (), (1, 1, 2, 1, 1, 2, 1, 1)),
}


@pytest.mark.parametrize("case", list(WEIGHTED_GRAM_CASES))
def test_weighted_gram_equals_the_gram_of_the_repeated_stack(case):
    shape, zero_rows, counts = WEIGHTED_GRAM_CASES[case]
    z = _gram_stack(shape, zero_rows)
    first = np.cumsum((0,) + counts[:-1])  # each channel's first copy
    rows, cols = np.triu_indices(shape[-1])
    repeated = np.repeat(z, counts, axis=-1)
    m = repeated.shape[-1]
    want = normalized_gram(repeated)[..., triangle(m)[1][first[rows], first[cols]]]
    got = normalized_gram(z, multiplicity=np.array(counts, dtype=np.float64))
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all()
    ones = normalized_gram(z, multiplicity=np.ones(shape[-1]))
    assert ones.tobytes() == normalized_gram(z).tobytes()


@pytest.mark.parametrize("case", list(WEIGHTED_GRAM_CASES))
def test_weighted_gram_adjoint_matches_finite_differences(case):
    shape, _, counts = WEIGHTED_GRAM_CASES[case]
    rng = np.random.default_rng(25)
    z = rng.normal(size=shape)
    c = np.array(counts, dtype=np.float64)
    w = rng.normal(size=shape[:-2] + (shape[-1] * (shape[-1] + 1) // 2,))
    tape = ad.Tape()
    v = tape.var(z)
    got = tape.backward(normalized_gram(v, multiplicity=c), w).of(v)
    want = fd_grad(lambda: float(np.sum(w * normalized_gram(z, multiplicity=c))), z,
                   range(z.size))
    assert rel_err(got.reshape(-1), want) <= 1e-6


@pytest.mark.parametrize("case", list(WEIGHTED_GRAM_CASES))
def test_weighted_gram_adjoint_is_orthogonal_to_the_stack(case):
    # homogeneous of degree 0 in z whatever the weights (Euler's theorem)
    shape, zero_rows, counts = WEIGHTED_GRAM_CASES[case]
    z = _gram_stack(shape, zero_rows)
    c = np.array(counts, dtype=np.float64)
    y, g_z = value_and_adjoints(lambda v: normalized_gram(v, multiplicity=c), [z], 21, False)
    g = adjoint_seed(y.size, 21).reshape(y.shape)
    gram_norm = _gram_norms(np.repeat(z, counts, axis=-1))
    scaled = gram_norm >= GRAM_NORM_EPS
    assert scaled.any()
    radial = np.abs((g_z * z).reshape((-1,) + z.shape[-2:]).sum(axis=(-2, -1)))[scaled]
    scale = (_triangle_norms(g) * _stack_norms(z) ** 2)[scaled] / gram_norm[scaled]
    assert (radial <= 1e-12 * scale).all()


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "multiplicity"])
@pytest.mark.parametrize("case", list(WEIGHTED_GRAM_CASES))
def test_triangle_is_the_square_grams_upper_triangle_over_its_full_norm(case, weighted):
    # an independent transcription: the full square Gram over its full
    # weighted Frobenius norm, read in np.triu_indices order
    shape, zero_rows, counts = WEIGHTED_GRAM_CASES[case]
    z = _gram_stack(shape, zero_rows)
    c = np.array(counts, dtype=np.float64) if weighted else None
    rows, cols = np.triu_indices(shape[-1])
    want = square_gram(z, c)[..., rows, cols]
    got = normalized_gram(z, multiplicity=c)
    assert got.shape == want.shape == shape[:-2] + (rows.size,)
    assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all()


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gravity"])
def test_square_layout_mlp_on_the_triangle_matches_the_full_square(gated):
    # sigma reads the triangle: the same function as the square-layout net
    # that holds its rows at the upper entries (a <= b) and zeros below, on
    # the full square Gram.  Outputs to 1e-12, and every weight gradient, the
    # upper rows of the square first layer, to 1e-10 of its tensor's scale
    rng = np.random.default_rng(27)
    B, m, n = 7, 3, 2
    z, h = rng.normal(size=(B, 3, m)), rng.normal(size=(B, n))
    eta = constant_mlp([0.4], n) if gated else None
    m_aug = m + gated
    net = mlp_init(rng, [m_aug * (m_aug + 1) // 2 + n, 16, 16, m_aug * 2 + 1])
    rows, cols = np.triu_indices(m_aug)
    upper = np.append(rows * m_aug + cols, m_aug * m_aug + np.arange(n))
    first = np.zeros((m_aug * m_aug + n, 16))
    first[upper] = net.weights[0]
    square_net = MLP([first, *net.weights[1:]], list(net.biases), list(net.activations))
    seed = rng.normal(size=(B, 3, 2))

    def run(forward, sigma):
        tape = ad.Tape()
        out = forward(tape, tape.var(z), sigma)
        grads = tape.backward(out, seed)
        return ad.value_of(out), mlp_grads(tape, grads, sigma)

    def triangle_layout(tape, zt, sigma):
        return scalarize_subequivariant(zt, h, sigma, eta, GRAVITY, out_channels=2,
                                        extra_channels=1, tape=tape)[0]

    def square(tape, zt, sigma):  # the augmented stack's square Gram fed to sigma, then Z V
        aug = ad.concat([zt, np.broadcast_to(0.4 * GRAVITY.direction[:, None], (B, 3, 1))],
                        axis=-1) if gated else zt
        gram = square_gram(ad.value_of(aug)).reshape(B, -1)
        out = mlp_forward(sigma, np.concatenate([gram, h], axis=-1), tape=tape)
        return ad.matmul(aug, ad.reshape(ad.narrow(out, -1, 0, m_aug * 2), (B, m_aug, 2)))

    got, got_grads = run(triangle_layout, net)
    want, want_grads = run(square, square_net)
    want_grads[0] = want_grads[0][upper]
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0.0)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()


@pytest.mark.parametrize("case", ["batched_m1", "unbatched_m1"])
def test_gram_adjoint_of_one_channel_is_exactly_zero(case):
    # one nonzero channel normalizes to [[1]] whatever its length
    shape, zero_rows, _ = GRAM_CASES[case]
    _, g_z = value_and_adjoints(normalized_gram, [_gram_stack(shape, zero_rows)], 21, False)
    assert not g_z.any()


def test_gram_adjoint_where_scaling_is_skipped_is_the_unnormalized_one():
    # stacks 1-3 have |G| below GRAM_NORM_EPS (one is all zero), stack 0 is
    # scaled; each stack's adjoint depends on that stack alone
    rng = np.random.default_rng(25)
    z = rng.normal(size=(4, 3, 3))
    z[1:] *= 1e-7
    z[2] = 0.0
    norms = _gram_norms(z)
    assert norms[0] >= GRAM_NORM_EPS and (norms[1:] < GRAM_NORM_EPS).all()
    got = value_and_adjoints(normalized_gram, [z], 26, False)
    want = value_and_adjoints(lambda v: normalized_gram(v, False), [z], 26, False)
    for a, b in zip(got, want):
        assert a[1:].tobytes() == b[1:].tobytes()


def test_fused_gram_is_one_record():
    tape = ad.Tape()
    normalized_gram(tape.var(np.ones((2, 3, 2))))
    assert len(tape._records) == 1


# ------------------------------------------------------------- transforms

def test_transform_theta_zero_is_identity():
    tr = sample_subgroup_transform(0.0)
    np.testing.assert_allclose(tr.O, np.eye(3), atol=1e-15)


def test_transform_quarter_turn_maps_x_to_y():
    g = Gravity(direction=np.array([0.0, 0.0, -1.0]))
    tr = sample_subgroup_transform(np.pi / 2, gravity=g)
    got = tr.O @ np.array([1.0, 0.0, 0.0])
    # quarter turn about -z sends e_x to -e_y or +e_y depending on handedness
    assert min(np.max(np.abs(got - np.array([0.0, 1.0, 0.0]))),
               np.max(np.abs(got + np.array([0.0, 1.0, 0.0])))) < 1e-15


def test_sampled_transforms_orthogonal_and_axis_fixing():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        tr = random_subgroup_transform(rng, GRAVITY)
        assert np.max(np.abs(tr.O.T @ tr.O - np.eye(3))) < 1e-12
        assert np.max(np.abs(tr.O @ GRAVITY.direction - GRAVITY.direction)) < 1e-12


def test_horizontal_axis_rotation_moves_gravity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        O = horizontal_axis_rotation(rng, GRAVITY)
        assert np.max(np.abs(O.T @ O - np.eye(3))) < 1e-12
        assert np.max(np.abs(O @ GRAVITY.direction - GRAVITY.direction)) > 1e-2


# ------------------------------------------------------------------ witness

def test_witness_identity_for_equal_stacks():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(3, 3))
    tr = lemma5_witness(z, z, GRAVITY)
    np.testing.assert_allclose(tr.O @ z, z, atol=1e-10)


def test_witness_construct_then_recover_1000_rounds():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        z2 = rng.normal(size=(3, m))
        O_true = random_subgroup_transform(rng, GRAVITY).O
        z1 = O_true @ z2
        tr = lemma5_witness(z1, z2, GRAVITY)
        tr.validate(GRAVITY, tol=1e-10)
        worst = max(worst, float(np.max(np.abs(tr.O @ z2 - z1))))
    assert worst < 1e-6


def test_witness_rank_deficient_horizontal_part():
    rng = np.random.default_rng(14)
    # single channel along gravity: horizontal part is zero
    z2 = np.array([[0.0], [0.0], [2.0]])
    O_true = random_subgroup_transform(rng, GRAVITY).O
    z1 = O_true @ z2
    tr = lemma5_witness(z1, z2, GRAVITY)
    assert np.max(np.abs(tr.O @ z2 - z1)) < 1e-10


def test_witness_rejects_gram_mismatch():
    z2 = np.array([[1.0], [0.0], [0.0]])
    z1 = np.array([[0.0], [0.0], [1.0]])  # different vertical projection
    with pytest.raises(GramMismatchError):
        lemma5_witness(z1, z2, GRAVITY)


# -------------------------------------------------------- harness behaviors

def test_check_equivariance_identity_zero_deviation():
    rng = np.random.default_rng(15)
    z0 = rng.normal(size=(3, 2))

    def fn(geo, sca):
        return [geo[0]], []

    dev = check_equivariance(fn, ([z0], []), group="og3", trials=50, seed=16)
    assert dev == 0.0


def test_check_equivariance_rejects_unknown_group():
    with pytest.raises(ContractError):
        check_equivariance(lambda g, s: (g, s), ([np.zeros((3, 1))], []), group="su2")


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(17)
    for _ in range(100):
        O = random_orthogonal(rng)
        assert np.max(np.abs(O.T @ O - np.eye(3))) < 1e-12


def test_zero_stack_gradients_stay_finite():
    # normalization is skipped on all-zero stacks; the skip must not poison
    # the backward pass with 0 * inf
    from sgnn import ad
    from sgnn.mlp import mlp_grads

    rng = np.random.default_rng(18)
    net = mlp_init(rng, [3 + 1, 8, 2 * 1])
    tape = ad.Tape()
    z = tape.var(np.zeros((1, 3, 2)))
    out, _ = scalarize_subequivariant(z, np.ones((1, 1)), net, tape=tape)
    loss = ad.sum_(ad.mul(out, out))
    grads = tape.backward(loss, np.array(1.0))
    assert np.isfinite(grads.of(z)).all()
    for g in mlp_grads(tape, grads, net):
        assert np.isfinite(g).all()


def test_build_edges_survives_huge_coordinates():
    from sgnn.graph import ParticleSystem, build_edges

    sys_ = ParticleSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1e300, 1e300, 1e300]]),
        velocities=np.zeros((2, 3)),
        attrs=np.ones((2, 1)),
        object_of=np.array([0, 1]),
    )
    edges = build_edges(sys_, 0.1)
    assert edges.inter.shape[0] == 0 and edges.inner.shape[0] == 0
