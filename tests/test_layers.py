"""Object-aware layer: transcription oracle, symmetry, masking reduction."""

import numpy as np
import pytest

from sgnn import ad
from sgnn.geometry import Gravity, check_equivariance
from sgnn.graph import ParticleSystem, build_edges, pool_objects
from sgnn.layers import make_somp_params, somp_forward

from helpers import check_mlp_grads_fd, naive_somp

GRAVITY = Gravity()


def random_instance(rng, n=8, objects=2, n_attrs=2, spread=0.5):
    pos = rng.uniform(-spread, spread, size=(n, 3))
    sys_ = ParticleSystem(
        positions=pos,
        velocities=0.2 * rng.normal(size=(n, 3)),
        attrs=rng.normal(size=(n, n_attrs)),
        object_of=np.arange(n) % objects,
    )
    return sys_


def test_isolated_nodes_identity_with_zero_update():
    rng = np.random.default_rng(0)
    params = make_somp_params(rng, 2, hidden=16, iterations=1, zero_init_update=True)
    sys_ = random_instance(rng)
    feats = pool_objects(sys_)
    edges = np.zeros((0, 2), dtype=np.int64)
    z, h = somp_forward(
        params, sys_.geometric_stack(), sys_.attrs, edges,
        objects=feats, object_of=sys_.object_of, gravity=GRAVITY,
    )
    np.testing.assert_array_equal(z, sys_.geometric_stack())
    np.testing.assert_array_equal(h, sys_.attrs)


def test_zero_init_update_is_residual_identity():
    rng = np.random.default_rng(1)
    params = make_somp_params(rng, 2, hidden=16, iterations=3, zero_init_update=True)
    sys_ = random_instance(rng, n=10, objects=2)
    feats = pool_objects(sys_)
    edges = build_edges(sys_, 0.6)
    z, h = somp_forward(
        params, sys_.geometric_stack(), sys_.attrs, edges.inter,
        objects=feats, object_of=sys_.object_of, gravity=GRAVITY,
    )
    np.testing.assert_array_equal(z, sys_.geometric_stack())
    np.testing.assert_array_equal(h, sys_.attrs)


def test_two_coincident_still_nodes_zero_update_identity():
    rng = np.random.default_rng(2)
    params = make_somp_params(rng, 1, hidden=16, iterations=1, zero_init_update=True)
    sys_ = ParticleSystem(
        positions=np.zeros((2, 3)),
        velocities=np.zeros((2, 3)),
        attrs=np.ones((2, 1)),
        object_of=np.array([0, 1]),
    )
    feats = pool_objects(sys_)
    edges = np.array([[0, 1], [1, 0]])
    z, h = somp_forward(
        params, sys_.geometric_stack(), sys_.attrs, edges,
        objects=feats, object_of=sys_.object_of, gravity=GRAVITY,
    )
    np.testing.assert_array_equal(z, sys_.geometric_stack())
    np.testing.assert_array_equal(h, sys_.attrs)


# the sum cases keep their earlier ids, the bare trial number
@pytest.mark.parametrize("aggregate,trial", [
    pytest.param(aggregate, trial, id=str(trial) if aggregate == "sum" else f"mean-{trial}")
    for aggregate in ("sum", "mean") for trial in range(6)
])
def test_matches_naive_transcription(aggregate, trial):
    rng = np.random.default_rng(400 + trial)
    msg_extra = 0 if trial == 5 else 4  # the last trial sends no invariant message extras
    params = make_somp_params(
        rng, 2, hidden=12, iterations=1, zero_init_update=False, msg_channels=2,
        msg_extra=msg_extra,
    )
    params.aggregate = aggregate
    sys_ = random_instance(rng, n=8, objects=2)
    feats = pool_objects(sys_)
    edges = build_edges(sys_, 0.8)
    all_edges = np.concatenate([edges.inter, edges.inner], axis=0)
    z_fast, h_fast = somp_forward(
        params, sys_.geometric_stack(), sys_.attrs, all_edges,
        objects=feats, object_of=sys_.object_of, gravity=GRAVITY,
    )
    z_naive, h_naive = naive_somp(
        params, sys_.geometric_stack(), sys_.attrs, all_edges,
        feats=feats, object_of=sys_.object_of,
    )
    np.testing.assert_allclose(z_fast, z_naive, atol=1e-10, rtol=0.0)
    np.testing.assert_allclose(h_fast, h_naive, atol=1e-10, rtol=0.0)


def test_axis_equivariance_with_translation():
    rng = np.random.default_rng(5)
    params = make_somp_params(rng, 2, hidden=16, iterations=2, zero_init_update=False)
    sys_ = random_instance(rng, n=10, objects=2)
    edges = build_edges(sys_, 0.7)
    all_edges = np.concatenate([edges.inter, edges.inner], axis=0)

    def fn(geo, sca):
        z = geo[0]
        system = ParticleSystem(
            positions=z[:, :, 0], velocities=z[:, :, 1],
            attrs=sca[0], object_of=sys_.object_of,
        )
        feats = pool_objects(system)
        z2, h2 = somp_forward(
            params, system.geometric_stack(), system.attrs, all_edges,
            objects=feats, object_of=system.object_of, gravity=GRAVITY,
        )
        return [z2], [h2]

    dev = check_equivariance(
        fn, ([sys_.geometric_stack()], [sys_.attrs]), group="og3",
        trials=100, seed=6, translate=True,
    )
    assert dev < 1e-9


def test_permutation_equivariance_exact():
    rng = np.random.default_rng(7)
    params = make_somp_params(rng, 2, hidden=12, iterations=2, zero_init_update=False)
    sys_ = random_instance(rng, n=9, objects=3)
    feats = pool_objects(sys_)
    edges = build_edges(sys_, 0.7)
    all_edges = np.concatenate([edges.inter, edges.inner], axis=0)
    z1, h1 = somp_forward(
        params, sys_.geometric_stack(), sys_.attrs, all_edges,
        objects=feats, object_of=sys_.object_of, gravity=GRAVITY,
    )
    perm = rng.permutation(sys_.n_particles)
    inv = np.argsort(perm)
    permuted = ParticleSystem(
        positions=sys_.positions[perm],
        velocities=sys_.velocities[perm],
        attrs=sys_.attrs[perm],
        object_of=sys_.object_of[perm],
    )
    # object features are per-object; sharing them keeps fp summation order
    # identical so the relabeling shows up as bit-equal permuted outputs
    edges_p = np.stack([inv[all_edges[:, 0]], inv[all_edges[:, 1]]], axis=1)
    z2, h2 = somp_forward(
        params, permuted.geometric_stack(), permuted.attrs, edges_p,
        objects=feats, object_of=permuted.object_of, gravity=GRAVITY,
    )
    np.testing.assert_array_equal(z2, z1[perm])
    np.testing.assert_array_equal(h2, h1[perm])


def test_gradient_flow_matches_finite_differences():
    rng = np.random.default_rng(8)
    params = make_somp_params(
        rng, 2, hidden=8, iterations=1, zero_init_update=False, msg_extra=4
    )
    sys_ = random_instance(rng, n=6, objects=2)
    feats = pool_objects(sys_)
    edges = build_edges(sys_, 0.9)
    all_edges = np.concatenate([edges.inter, edges.inner], axis=0)
    proj = rng.normal(size=(3, 2))

    def make_loss(tape):
        z = sys_.geometric_stack()
        h = sys_.attrs
        if tape is not None:
            z, h = tape.var(z), tape.var(h)
        z2, h2 = somp_forward(
            params, z, h, all_edges, objects=feats, object_of=sys_.object_of,
            gravity=GRAVITY, tape=tape,
        )
        return ad.sum_(ad.mul(z2, proj))

    worst = check_mlp_grads_fd(make_loss, params.mlps(), rng, coords_per_tensor=3)
    assert worst < 1e-4
