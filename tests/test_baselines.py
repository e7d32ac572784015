"""Baseline layers: transcriptions, symmetry classes, weight-embedding reductions."""

import numpy as np
import pytest

from sgnn import ad
from sgnn.baselines import (
    egnn_forward,
    gns_forward,
    make_baseline,
    make_egnn_params,
    make_gmn_params,
    make_gns_params,
)
from sgnn.errors import ContractError
from sgnn.geometry import Gravity, check_equivariance, random_subgroup_transform
from sgnn.graph import ParticleSystem, build_edges, pool_objects
from sgnn.layers import make_somp_params, somp_forward
from sgnn.mlp import MLP, mlp_forward, mlp_grads
from sgnn.verify import embed_egnn_in_gmn, embed_gmn_in_somp, reduction_suite

from helpers import per_edge_gns

GRAVITY = Gravity()


def random_system(rng, n=8, objects=2, n_attrs=2):
    return ParticleSystem(
        positions=rng.uniform(-0.3, 0.3, size=(n, 3)),
        velocities=0.1 * rng.normal(size=(n, 3)),
        attrs=rng.normal(size=(n, n_attrs)),
        object_of=np.arange(n) % objects,
    )


@pytest.mark.parametrize("make", [make_somp_params, make_gns_params, make_egnn_params,
                                  make_gmn_params])
@pytest.mark.parametrize("iterations", [0, -3])
def test_every_params_family_rejects_fewer_than_one_iteration(make, iterations):
    with pytest.raises(ContractError, match="iterations must be >= 1"):
        make(np.random.default_rng(0), 2, hidden=4, iterations=iterations)


@pytest.mark.parametrize("make", [make_somp_params, make_gmn_params])
def test_multichannel_params_reject_a_negative_msg_extra(make):
    with pytest.raises(ContractError, match="msg_extra must be >= 0, got -1"):
        make(np.random.default_rng(0), 2, hidden=4, msg_extra=-1)


def test_gns_zero_init_identity_on_positions():
    rng = np.random.default_rng(0)
    params = make_gns_params(rng, 2, hidden=8, iterations=3, zero_init_update=True)
    sys_ = random_system(rng)
    edges = build_edges(sys_, 0.8).merged
    x, v, h = gns_forward(params, sys_.positions, sys_.velocities, sys_.attrs, edges)
    np.testing.assert_array_equal(x, sys_.positions)
    np.testing.assert_array_equal(v, sys_.velocities)


def _system_with_isolated_particle(rng):
    """``random_system`` with its last particle far beyond the cutoff, so it
    receives no edge."""
    sys_ = random_system(rng)
    sys_.positions[-1] = 5.0
    return sys_


def _naive_gns(params, sys_, edges):
    """GNS one edge and one node at a time, in plain numpy."""
    x, v, h = sys_.positions.copy(), sys_.velocities.copy(), sys_.attrs.copy()
    n = sys_.n_particles
    for _ in range(params.iterations):
        agg = np.zeros((n, params.msg_dim))
        degree = np.zeros(n)
        for i, j in edges:
            feats = np.concatenate([x[i] - x[j], v[i], v[j], h[i], h[j]])
            agg[i] += mlp_forward(params.phi, feats)
            degree[i] += 1
        for i in range(n):
            if not degree[i]:
                continue
            msg = agg[i] / degree[i] if params.aggregate == "mean" else agg[i]
            upd = mlp_forward(params.psi, np.concatenate([msg, v[i], h[i]]))
            x[i] = x[i] + upd[:3]
            v[i] = v[i] + upd[3:6]
            h[i] = h[i] + upd[6:]
    return x, v, h


def test_gns_matches_naive_transcription():
    rng = np.random.default_rng(1)
    params = make_gns_params(rng, 2, hidden=8, iterations=2, zero_init_update=False)
    sys_ = _system_with_isolated_particle(rng)
    edges = build_edges(sys_, 0.8).merged
    assert sys_.n_particles - 1 not in edges
    given = (sys_.positions, sys_.velocities, sys_.attrs)
    for aggregate in ("sum", "mean"):
        params.aggregate = aggregate
        got = gns_forward(params, *given, edges)
        for g, want, inp in zip(got, _naive_gns(params, sys_, edges), given):
            np.testing.assert_allclose(g, want, atol=1e-10, rtol=0.0)
            # the particle that receives no edge comes back bit for bit
            np.testing.assert_array_equal(g[-1], inp[-1])


@pytest.mark.parametrize("aggregate", ["sum", "mean"])
def test_gns_per_node_output_layer_matches_per_edge_phi_on_the_tape(aggregate):
    # φ's last layer run per node after the aggregation against φ run whole
    # on every edge: the prediction and every GNS parameter adjoint agree
    rng = np.random.default_rng(12)
    params = make_gns_params(rng, 2, hidden=8, iterations=2, zero_init_update=False)
    params.aggregate = aggregate
    for net in params.mlps():
        for b in net.biases:
            b[:] = rng.normal(size=b.shape)
    sys_ = _system_with_isolated_particle(rng)
    edges = build_edges(sys_, 0.8).merged
    seed = rng.normal(size=sys_.positions.shape)
    runs = []
    for forward in (gns_forward, per_edge_gns):
        tape = ad.Tape()
        x, _, _ = forward(params, tape.var(sys_.positions), tape.var(sys_.velocities),
                          tape.var(sys_.attrs), edges, tape=tape)
        grads = tape.backward(x, seed)
        runs.append([x.value] + [g for net in params.mlps()
                                 for g in mlp_grads(tape, grads, net)])
    for got, want in zip(*runs):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_gns_translation_equivariant_but_not_rotation():
    rng = np.random.default_rng(2)
    b = make_baseline("gns", rng, 2, hidden=8, iterations=2, cutoff=0.8,
                      zero_init_update=False)
    for m in b.mlps():
        m.weights[-1] *= 3.0
    sys_ = random_system(rng)
    t = rng.normal(size=3)
    shifted = ParticleSystem(sys_.positions + t, sys_.velocities, sys_.attrs, sys_.object_of)
    np.testing.assert_allclose(b.predict(shifted), b.predict(sys_) + t, atol=1e-12)

    worst = 0.0
    for _ in range(10):
        O = random_subgroup_transform(rng, GRAVITY).O
        moved = ParticleSystem(
            sys_.positions @ O.T, sys_.velocities @ O.T, sys_.attrs, sys_.object_of
        )
        worst = max(worst, np.abs(b.predict(moved) - b.predict(sys_) @ O.T).max())
    assert worst > 1e-3


def test_egnn_constant_velocity_gate_keeps_velocities():
    rng = np.random.default_rng(3)
    params = make_egnn_params(rng, 2, hidden=8, iterations=2, zero_init_update=True)
    # zero-init phi_x / phi_g / phi_v, then pin the velocity gate output to 1
    params.phi_v.biases[-1][:] = 1.0
    sys_ = random_system(rng)
    edges = build_edges(sys_, 0.8).merged
    x, v, h = egnn_forward(
        params, sys_.positions, sys_.velocities, sys_.attrs, edges, gravity=GRAVITY
    )
    np.testing.assert_allclose(v, sys_.velocities, atol=1e-14)


@pytest.mark.parametrize("variant,group", [("egnn", "o3"), ("gmn", "o3"),
                                           ("egnn_s", "og3"), ("gmn_s", "og3")])
def test_baseline_equivariance_classes(variant, group):
    rng = np.random.default_rng(4)
    b = make_baseline(variant, rng, 2, hidden=8, iterations=2, cutoff=0.8,
                      zero_init_update=False)
    sys_ = random_system(rng)

    def fn(geo, sca):
        z = geo[0]
        system = ParticleSystem(z[:, :, 0], z[:, :, 1], sca[0], sys_.object_of)
        return [b.predict(system)[:, :, None]], []

    dev = check_equivariance(
        fn, ([sys_.geometric_stack()], [sys_.attrs]), group=group,
        trials=60, seed=5, translate=True,
    )
    assert dev < 1e-9


def test_gmn_zero_init_identity():
    rng = np.random.default_rng(6)
    params = make_gmn_params(rng, 2, hidden=8, iterations=2, zero_init_update=True)
    sys_ = random_system(rng)
    edges = build_edges(sys_, 0.8).merged
    z, h = somp_forward(params, sys_.geometric_stack(), sys_.attrs, edges, gravity=GRAVITY)
    np.testing.assert_array_equal(z, sys_.geometric_stack())
    np.testing.assert_array_equal(h, sys_.attrs)


def test_masking_reductions_to_1e10():
    for r in reduction_suite(instances=10, seed=3):
        assert r.passed, r.line()


def test_reduction_models_are_mlps_that_run_the_shipped_sigma_path():
    rng = np.random.default_rng(9)
    sys_ = random_system(rng)
    edges, feats = build_edges(sys_, 0.9).merged, pool_objects(sys_)
    gmn = make_gmn_params(rng, 2, hidden=8, iterations=2, zero_init_update=False, normalize=False)
    somp = embed_gmn_in_somp(gmn, rng)
    egnn = make_egnn_params(rng, 2, hidden=8, iterations=2, zero_init_update=False)
    for params in (somp, embed_egnn_in_gmn(egnn, rng)):
        assert [type(net) for net in params.mlps()] == [MLP] * 4

    def run():
        return somp_forward(somp, sys_.geometric_stack(), sys_.attrs, edges, objects=feats,
                            object_of=sys_.object_of, gravity=GRAVITY)[0]

    # phi_sigma's channel 7 is the gravity column: a nonzero row of its (g, g)
    # Gram entry, the last of the 8-channel triangle, reaches the output only
    # through the gated object-aware sigma path
    base, row = run(), 8 * 9 // 2 - 1
    assert not somp.phi_sigma.weights[0][row].any()
    somp.phi_sigma.weights[0][row] = 1.0
    assert np.abs(run() - base).max() > 1e-6
