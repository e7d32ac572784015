"""Hierarchical model: transcription oracle, symmetry, rollout, projection."""

import dataclasses

import numpy as np
import pytest

from sgnn import ad
from sgnn.baselines import make_baseline
from sgnn.errors import ContractError, RolloutError
from sgnn.geometry import Gravity, check_equivariance, random_orthogonal, random_subgroup_transform
from sgnn.graph import ObjectFeatures, ParticleSystem, build_edges, pool_objects
from sgnn.layers import somp_forward
from sgnn.model import make_sgnn_model, rigid_project, rollout

from helpers import fill_zero_last_layers, loop_rigid_project, naive_ominus, naive_somp

GRAVITY = Gravity()


def two_cluster_system(rng, gap=0.25, n_attrs=2):
    """Two 4-particle clusters; with gap > cutoff the objects are isolated."""
    base = rng.uniform(-0.03, 0.03, size=(4, 3))
    pos = np.concatenate([base, base + np.array([gap, 0.0, 0.0])], axis=0)
    return ParticleSystem(
        positions=pos,
        velocities=0.01 * rng.normal(size=(8, 3)),
        attrs=rng.normal(size=(8, n_attrs)),
        object_of=np.array([0, 0, 0, 0, 1, 1, 1, 1]),
    )


def contact_system(rng, n=16, objects=2, n_attrs=2):
    pos = rng.uniform(-0.06, 0.06, size=(n, 3))
    return ParticleSystem(
        positions=pos,
        velocities=0.01 * rng.normal(size=(n, 3)),
        attrs=rng.normal(size=(n, n_attrs)),
        object_of=np.arange(n) % objects,
    )


def test_zero_init_model_is_identity():
    rng = np.random.default_rng(0)
    model = make_sgnn_model(rng, 2, hidden=16, iterations=2, cutoff=0.1)
    sys_ = contact_system(rng)
    edges = build_edges(sys_, model.cutoff)
    out = model.predict(sys_, edges)
    np.testing.assert_array_equal(out, sys_.positions)


def test_isolated_object_only_inner_stage_contributes():
    rng = np.random.default_rng(1)
    model = make_sgnn_model(rng, 2, hidden=12, iterations=1, cutoff=0.1,
                            zero_init_update=False, msg_extra=4)
    sys_ = two_cluster_system(rng, gap=0.5)
    edges = build_edges(sys_, model.cutoff)
    assert edges.inter.shape[0] == 0 and edges.obj.shape[0] == 0
    out = model.predict(sys_, edges)
    feats = pool_objects(sys_)
    z3, _ = somp_forward(
        model.stage3, sys_.geometric_stack(), sys_.attrs, edges.inner,
        objects=feats, object_of=sys_.object_of, gravity=model.gravity,
    )
    np.testing.assert_array_equal(out, z3[:, :, 0])


def test_object_isolation_bit_identical():
    rng = np.random.default_rng(2)
    model = make_sgnn_model(rng, 2, hidden=12, iterations=2, cutoff=0.1,
                            zero_init_update=False, msg_extra=4)
    sys_ = two_cluster_system(rng, gap=0.6)
    out = model.predict(sys_)
    moved = sys_.positions.copy()
    moved[4:] += rng.normal(size=(4, 3)) * 0.05  # perturb the far object only
    sys2 = ParticleSystem(moved, sys_.velocities, sys_.attrs, sys_.object_of)
    out2 = model.predict(sys2)
    np.testing.assert_array_equal(out[:4], out2[:4])


@pytest.mark.parametrize("trial", range(3))
def test_predict_matches_naive_transcription(trial):
    rng = np.random.default_rng(500 + trial)
    model = make_sgnn_model(rng, 2, hidden=10, iterations=1, cutoff=0.1,
                            zero_init_update=False, msg_channels=2, msg_extra=4)
    sys_ = contact_system(rng, n=16, objects=2)
    edges = build_edges(sys_, model.cutoff)
    if edges.obj.shape[0] == 0:
        pytest.skip("no object contact in this draw")
    got = model.predict(sys_, edges)

    # straight-line transcription of the three stages
    feats = pool_objects(sys_)
    z1, h1 = naive_somp(
        model.stage1, sys_.geometric_stack(), sys_.attrs, edges.inter,
        feats=feats, object_of=sys_.object_of,
    )
    pooled_z, pooled_h, counts = {}, {}, {}
    for row, (i, j) in enumerate(edges.inter):
        key = int(edges.inter_to_obj[row])
        pooled_z.setdefault(key, []).append(naive_ominus(z1[i], z1[j]))
        pooled_h.setdefault(key, []).append(np.concatenate([h1[i], h1[j]]))
    k_edges = edges.obj.shape[0]
    zkl = np.stack([np.mean(pooled_z[k], axis=0) for k in range(k_edges)])
    hkl = np.stack([np.mean(pooled_h[k], axis=0) for k in range(k_edges)])
    C2, c2 = naive_somp(
        model.stage2, feats.C, feats.c, edges.obj, edge_features=(zkl, hkl)
    )
    z3, _ = naive_somp(
        model.stage3, sys_.geometric_stack(), sys_.attrs, edges.inner,
        feats=ObjectFeatures(C=C2, c=c2), object_of=sys_.object_of,
    )
    np.testing.assert_allclose(got, z3[:, :, 0], atol=1e-10, rtol=0.0)


def test_end_to_end_axis_equivariance():
    rng = np.random.default_rng(3)
    model = make_sgnn_model(rng, 2, hidden=12, iterations=2, cutoff=0.1,
                            zero_init_update=False, msg_extra=4)
    sys_ = contact_system(rng, n=18, objects=3)

    def fn(geo, sca):
        z = geo[0]
        system = ParticleSystem(z[:, :, 0], z[:, :, 1], sca[0], sys_.object_of)
        out = model.predict(system)
        return [out[:, :, None]], []

    dev = check_equivariance(
        fn, ([sys_.geometric_stack()], [sys_.attrs]), group="og3",
        trials=100, seed=4, translate=True,
    )
    assert dev < 1e-9


@pytest.mark.parametrize("variant", ["sgnn", "egnn_s", "gmn_s"])
def test_turning_gravity_with_the_scene_gives_full_orthogonal_equivariance(variant):
    # f(O Z + t, O g) = O f(Z, g) + t for O drawn from all of O(3), proper and
    # improper: gravity is the only direction the model prefers
    rng = np.random.default_rng(12)
    if variant == "sgnn":
        model = make_sgnn_model(rng, 2, hidden=12, iterations=2, cutoff=0.1, msg_extra=4)
    else:
        model = make_baseline(variant, rng, 2, hidden=12, iterations=2, cutoff=0.1)
    fill_zero_last_layers(model)  # off the zero init, so the update is not the identity
    system = contact_system(rng, n=16, objects=2)
    base = model.predict(system)
    update = np.abs(base - system.positions).max()
    assert update > 1e-3
    worst, fixed = 0.0, np.inf
    for trial in range(10):
        O = random_orthogonal(rng)
        if (np.linalg.det(O) < 0) != bool(trial % 2):
            O = -O
        t = rng.normal(size=3)
        moved = ParticleSystem(system.positions @ O.T + t, system.velocities @ O.T,
                               system.attrs, system.object_of)
        turned = dataclasses.replace(model, gravity=Gravity(O @ model.gravity.direction,
                                                            model.gravity.magnitude))
        want = base @ O.T + t
        worst = max(worst, np.abs(turned.predict(moved) - want).max())
        # witness: with g held fixed the same maps break the symmetry
        fixed = min(fixed, np.abs(model.predict(moved) - want).max())
    assert worst <= 1e-9 * update
    assert fixed > 1e-2 * update


def test_ablation_variants_run():
    rng = np.random.default_rng(6)
    sys_ = contact_system(rng, n=12, objects=2)
    for flags in (
        dict(no_hierarchy=True),
        dict(zero_object_features=True),
        dict(shared_edges=True),
        dict(equivariant_only=True),
    ):
        model = make_sgnn_model(np.random.default_rng(7), 2, hidden=8, iterations=1,
                                cutoff=0.1, zero_init_update=False, msg_extra=4, **flags)
        out = model.predict(sys_)
        assert np.isfinite(out).all()


# -------------------------------------------------------------------- rollout

def test_rollout_single_step_equals_predict():
    rng = np.random.default_rng(8)
    model = make_sgnn_model(rng, 2, hidden=10, iterations=1, cutoff=0.1,
                            zero_init_update=False, msg_extra=4)
    sys_ = contact_system(rng)
    traj = rollout(model, sys_, 1, dt=0.02)
    want = model.predict(sys_)
    np.testing.assert_array_equal(traj.frames[0], sys_.positions)
    np.testing.assert_array_equal(traj.frames[1], want)
    assert traj.n_frames == 2


def test_rollout_zero_init_constant():
    rng = np.random.default_rng(9)
    model = make_sgnn_model(rng, 2, hidden=10, iterations=2, cutoff=0.1)
    sys_ = contact_system(rng)
    traj = rollout(model, sys_, 5)
    for t in range(6):
        np.testing.assert_array_equal(traj.frames[t], sys_.positions)


def test_rollout_rejects_non_finite():
    rng = np.random.default_rng(10)
    model = make_sgnn_model(rng, 2, hidden=8, iterations=1, cutoff=0.1,
                            zero_init_update=False, msg_extra=4)
    model.stage3.psi_sigma.weights[0][0, 0] = np.nan
    sys_ = contact_system(rng)
    with pytest.raises(RolloutError) as err:
        rollout(model, sys_, 3)
    assert err.value.step == 0


def test_rollout_equivariance_over_40_steps():
    rng = np.random.default_rng(11)
    model = make_sgnn_model(rng, 2, hidden=10, iterations=1, cutoff=0.1,
                            zero_init_update=False, msg_extra=4)
    # soften the random residuals so the autoregression stays bounded
    for params in (model.stage1, model.stage2, model.stage3):
        params.psi_sigma.weights[-1] *= 0.05
    sys_ = contact_system(rng, n=12, objects=2)
    tr = random_subgroup_transform(rng, GRAVITY, translation_scale=0.1)
    moved = ParticleSystem(
        sys_.positions @ tr.O.T + tr.t, sys_.velocities @ tr.O.T,
        sys_.attrs, sys_.object_of,
    )
    a = rollout(model, sys_, 40)
    b = rollout(model, moved, 40)
    dev = np.abs(b.frames - (a.frames @ tr.O.T + tr.t)).max()
    assert np.isfinite(a.frames).all()
    assert dev < 1e-7


def test_rigid_rollout_projects_each_tagged_object_with_the_all_points_fit():
    """Each tagged object's frame is the all-points fit of the model's raw
    prediction onto its initial layout; an untagged object keeps the raw
    prediction.  Some fits leave a particle more than 0.01 away."""
    rng = np.random.default_rng(0)
    model = make_sgnn_model(rng, 2, hidden=10, iterations=1, cutoff=0.1,
                            zero_init_update=False, msg_extra=4)
    sys_ = contact_system(rng, n=18, objects=3)
    raw, predict = [], model.predict

    def recording_predict(system, edges):
        raw.append(np.array(ad.value_of(predict(system, edges))))
        return raw[-1].copy()

    model.predict = recording_predict
    tagged = np.array([True, False, True])
    traj = rollout(model, sys_, 4, rigid=True, rigid_objects=tagged)
    assert len(raw) == 4
    worst = 0.0
    for step, pred in enumerate(raw):
        for k in range(3):
            members = sys_.object_of == k
            got = traj.frames[step + 1][members]
            if tagged[k]:
                fit = loop_rigid_project(pred[members], sys_.positions[members])
                assert got.tobytes() == fit.positions.tobytes(), (step, k)
                worst = max(worst, np.linalg.norm(fit.positions - pred[members], axis=1).max())
            else:
                assert got.tobytes() == pred[members].tobytes(), (step, k)
    assert worst > 0.01


@pytest.mark.parametrize("flags", [[True, False], [True] * 4, [[True, True, True]]],
                         ids=["short", "long", "row"])
def test_rollout_rejects_rigid_objects_of_the_wrong_shape(flags):
    rng = np.random.default_rng(12)
    model = make_sgnn_model(rng, 2, hidden=8, iterations=1, cutoff=0.1)
    sys_ = contact_system(rng, n=9, objects=3)
    with pytest.raises(ContractError, match=r"rigid_objects must have shape \(3,\)"):
        rollout(model, sys_, 2, rigid=True, rigid_objects=np.array(flags))


# ------------------------------------------------------------ rigid projection

def test_rigid_project_identity():
    rng = np.random.default_rng(12)
    ref = rng.normal(size=(10, 3))
    fit = rigid_project(ref.copy(), ref)
    np.testing.assert_allclose(fit.positions, ref, atol=1e-12)
    np.testing.assert_allclose(fit.rotation, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(fit.translation, np.zeros(3), atol=1e-12)


def _proper_rotation(rng):
    from sgnn.geometry import random_orthogonal

    O = random_orthogonal(rng)
    if np.linalg.det(O) < 0:
        O[:, 0] = -O[:, 0]
    return O


def test_rigid_project_recovers_known_motion():
    rng = np.random.default_rng(13)
    ref = rng.normal(size=(12, 3))
    R0 = _proper_rotation(rng)
    t0 = rng.normal(size=3)
    moved = ref @ R0.T + t0
    fit = rigid_project(moved, ref)
    np.testing.assert_allclose(fit.positions, moved, atol=1e-10)
    np.testing.assert_allclose(fit.rotation, R0, atol=1e-9)
    np.testing.assert_allclose(fit.translation, t0, atol=1e-9)


def test_rigid_project_collinear_falls_back_to_translation():
    ref = np.stack([np.linspace(0, 1, 5), np.zeros(5), np.zeros(5)], axis=1)
    pred = ref + np.array([0.0, 0.5, 0.0])
    fit = rigid_project(pred, ref)
    assert fit.translation_only
    np.testing.assert_allclose(fit.positions, pred, atol=1e-12)


def test_rigid_project_preserves_shape_exactly():
    rng = np.random.default_rng(15)
    ref = rng.normal(size=(15, 3))
    pred = ref @ random_subgroup_transform(rng, GRAVITY).O.T + rng.normal(size=3)
    pred += 0.01 * rng.normal(size=pred.shape)  # non-rigid noise
    fit = rigid_project(pred, ref)
    d_ref = np.linalg.norm(ref[:, None] - ref[None, :], axis=2)
    d_out = np.linalg.norm(fit.positions[:, None] - fit.positions[None, :], axis=2)
    assert np.abs(d_ref - d_out).max() < 1e-10


def test_rigid_project_requires_three_points():
    with pytest.raises(ContractError):
        rigid_project(np.zeros((2, 3)), np.zeros((2, 3)))


def _same_fit(a, b):
    for name in ("positions", "rotation", "translation"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name
    assert a.translation_only == b.translation_only


def _rigid_cases(rng):
    def moved(ref, noise):
        return ref @ _proper_rotation(rng).T + rng.normal(size=3) + noise * rng.normal(size=ref.shape)

    ref = rng.normal(scale=0.05, size=(27, 3))
    outliers = moved(ref, 1e-3)
    outliers[[2, 11, 20]] += 0.1
    line = np.outer(np.linspace(-1.0, 1.0, 6), rng.normal(size=3))
    tri = rng.normal(size=(3, 3))
    return {
        "noisy": (moved(ref, 3e-3), ref),
        "outliers": (outliers, ref),
        "collinear": (line + rng.normal(scale=1e-3, size=line.shape), line),
        "three-points": (moved(tri, 1e-3), tri),
        "tied": _two_motions(rng),
    }


def _two_motions(rng):
    """Particles 0-3 and 4-7 moved by two different rigid motions, which no
    one motion of the whole set fits."""
    ref = rng.normal(size=(8, 3))
    pred = np.concatenate([
        ref[:4] @ _proper_rotation(rng).T,
        ref[4:] @ _proper_rotation(rng).T + 5.0,
    ])
    return pred, ref


@pytest.mark.parametrize("case", ["noisy", "outliers", "collinear", "three-points", "tied"])
@pytest.mark.parametrize("draw", [200, 20, 1, 0])
def test_rigid_project_matches_loop_bit_for_bit(case, draw):
    """The fit gives the positions and pose of the single-set loop
    reference, bit for bit, on four random draws of each case."""
    pred, ref = _rigid_cases(np.random.default_rng(draw))[case]
    _same_fit(rigid_project(pred, ref), loop_rigid_project(pred, ref))


@pytest.mark.parametrize("infinite", [True, False])
@pytest.mark.parametrize("name", ["predicted", "reference"])
def test_rigid_project_rejects_non_finite_points(name, infinite):
    ref = np.random.default_rng(24).normal(size=(8, 3))
    points = {"predicted": ref + 0.1, "reference": ref.copy()}
    points[name][3, 1] = np.inf if infinite else np.nan
    with pytest.raises(ContractError, match=name):
        rigid_project(points["predicted"], points["reference"])
