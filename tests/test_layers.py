"""Object-aware layer: transcription oracle, symmetry, masking reduction."""

import copy

import numpy as np
import pytest

from sgnn import ad, geometry, layers
from sgnn.geometry import Gravity, check_equivariance, normalized_gram
from sgnn.graph import ObjectFeatures, ParticleSystem, build_edges, pool_objects
from sgnn.layers import make_somp_params, somp_forward
from sgnn.mlp import mlp_grads

from helpers import check_mlp_grads_fd, full_layout_somp, naive_somp, square_layout_index

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


def _parity_case(stage, aggregate, equivariant_only, zero_objects, monkeypatch, seed=11):
    # the square draws, and the folded params the layer runs
    rng = np.random.default_rng(seed)
    with monkeypatch.context() as patch:
        patch.setattr(layers, "fold_v1_sigmas", lambda params: params)
        square = make_somp_params(rng, 2, hidden=12, iterations=2, zero_init_update=False,
                                  msg_extra=4, equivariant_only=equivariant_only)
    square.aggregate = aggregate
    params = layers.fold_v1_sigmas(copy.deepcopy(square))
    sys_ = random_instance(rng, n=10, objects=3)
    feats = pool_objects(sys_)
    if zero_objects:
        feats = ObjectFeatures(C=np.zeros_like(feats.C), c=np.zeros_like(feats.c))
    sets = build_edges(sys_, 0.6)
    edges = sets.inter if stage == "stage1" else sets.inner
    projections = [rng.normal(size=(10, 3, 2)), rng.normal(size=(10, 2))]
    return square, params, sys_, feats, edges, projections


def _taped_layer(layer, params, sys_, feats, edges, projections, stage):
    # stage 1 reads the pooled object features as constants, stage 3 reads
    # the ones stage 2 computed on the tape
    tape = ad.Tape()
    inputs = [tape.var(sys_.geometric_stack()), tape.var(sys_.attrs)]
    objects = feats
    if stage == "stage3":
        objects = ObjectFeatures(C=tape.var(feats.C), c=tape.var(feats.c))
        inputs += [objects.C, objects.c]
    z2, h2 = layer(params, *inputs[:2], edges, objects, sys_.object_of, gravity=GRAVITY,
                   tape=tape)
    loss = ad.add(ad.sum_(ad.mul(z2, projections[0])), ad.sum_(ad.mul(h2, projections[1])))
    grads = tape.backward(loss, np.array(1.0))
    return (z2.value, h2.value), [grads.of(v) for v in inputs], [
        mlp_grads(tape, grads, net) for net in params.mlps()]


def _at_square_places(grads, rows, cols):
    """A folded sigma's adjoints, each at the places of its square-layout
    copies: first-layer rows, and last-layer columns and bias entries."""
    layers_ = len(grads) // 2
    out = list(grads)
    out[0] = out[0][rows]
    out[layers_ - 1] = out[layers_ - 1][:, cols]
    out[-1] = out[-1][cols]
    return out


@pytest.mark.parametrize("zero_objects", [False, True], ids=["pooled", "zero_objects"])
@pytest.mark.parametrize("equivariant_only", [False, True], ids=["gated", "no_gate"])
@pytest.mark.parametrize("aggregate", ["sum", "mean"])
@pytest.mark.parametrize("stage", ["stage1", "stage3"])
def test_distinct_channel_stack_matches_full_layout(stage, aggregate, equivariant_only,
                                                    zero_objects, monkeypatch):
    # the layer's edge Gram has the 7 distinct channels plus gravity (the
    # update's has fewer), and on the folded draws the layer computes the
    # first format's ten-channel function of the square draws: outputs to
    # 1e-12, and every entry of every gradient, each square-layout copy of a
    # folded row or column of the sigmas included, to 1e-10 of its tensor's scale
    square, params, sys_, feats, edges, projections = _parity_case(
        stage, aggregate, equivariant_only, zero_objects, monkeypatch)
    assert edges.shape[0] > 0
    widths = []

    def spy(z, *args, **kwargs):
        widths.append(ad.value_of(z).shape[1:])
        return normalized_gram(z, *args, **kwargs)

    monkeypatch.setattr(geometry, "normalized_gram", spy)
    out, grads, net_grads = _taped_layer(somp_forward, params, sys_, feats, edges, projections,
                                         stage)
    message_channels = 7 if equivariant_only else 8
    assert (3, message_channels) in widths
    assert all(w[1] <= message_channels for w in widths)
    monkeypatch.undo()
    want_out, want_grads, want_net_grads = _taped_layer(full_layout_somp, square, sys_, feats,
                                                        edges, projections, stage)
    for got, want in zip(out, want_out):
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0.0)
    aug = 0 if equivariant_only else 1
    edge = (1, 2, 3, 4, 5, 6, 0, 2, 5, 7)[:9 + aug]  # stored channel k is distinct edge[k]
    update = tuple(range(params.msg_channels + 3 + aug))
    net_grads[0] = _at_square_places(net_grads[0], *square_layout_index(
        edge, square.phi_sigma.in_dim - len(edge) ** 2, params.msg_channels, params.msg_extra))
    net_grads[2] = _at_square_places(net_grads[2], *square_layout_index(
        update, square.psi_sigma.in_dim - len(update) ** 2, 2, params.n_scalar))
    got_all = grads + [g for net in net_grads for g in net]
    want_all = want_grads + [g for net in want_net_grads for g in net]
    assert len(got_all) == len(want_all)
    for got, want in zip(got_all, want_all):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
