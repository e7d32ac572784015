"""Oracle integrator, metrics, and trajectory file round trips."""

import numpy as np
import pytest

from sgnn.errors import ContractError, GenerationError, ShapeError, TrajectoryParseError
from sgnn.geometry import SubgroupTransform
from sgnn.scenes import (
    SceneConfig,
    Trajectory,
    _Body,
    _cube_offsets,
    _make_bodies,
    _step,
    contact_accuracy,
    format_scene_config,
    generate_scene,
    load_trajectory,
    min_object_distance,
    objects_contact,
    parse_scene_config,
    rollout_mse,
    save_trajectory,
)


def vertical_rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_config_text_round_trip():
    cfg = SceneConfig(objects=2, frames=10, seed=7, push_speed=0.3)
    text = format_scene_config(cfg)
    back = parse_scene_config(text)
    assert back == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ContractError, match="unknown key"):
        parse_scene_config("objects=2\nwarp_factor=9\n")


def test_config_rejects_nonpositive():
    with pytest.raises(ContractError):
        SceneConfig(dt=-0.1)


def test_resting_cube_is_static():
    cfg = SceneConfig(objects=1, frames=40, seed=1, drop_height=0.0)
    traj = generate_scene(cfg)
    per_frame = np.abs(np.diff(traj.frames, axis=0)).max()
    assert per_frame < 1e-6


def test_free_fall_matches_closed_form():
    cfg = SceneConfig(objects=1, ground=False, frames=21, seed=2, drop_height=0.3)
    traj = generate_scene(cfg)
    z0 = traj.frames[0][:, 2]
    g, dt = cfg.gravity, cfg.dt
    for t in range(traj.n_frames):
        n = t * cfg.record_every
        # discrete closed form of the semi-implicit step from rest
        want = z0 - g * dt * dt * n * (n + 1) / 2.0
        np.testing.assert_allclose(traj.frames[t][:, 2], want, atol=1e-12, rtol=0.0)
        # continuous free fall is matched to integrator order
        cont = z0 - 0.5 * g * (n * dt) ** 2
        assert np.abs(traj.frames[t][:, 2] - cont).max() <= 0.5 * g * dt * (n * dt) + 1e-12


def test_intra_object_distances_constant():
    cfg = SceneConfig(objects=3, frames=41, seed=3)
    traj = generate_scene(cfg)
    for k in range(3):
        pts = traj.frames[:, traj.object_of == k, :]
        d0 = np.linalg.norm(pts[0][:, None] - pts[0][None, :], axis=2)
        for t in range(traj.n_frames):
            dt_ = np.linalg.norm(pts[t][:, None] - pts[t][None, :], axis=2)
            assert np.abs(dt_ - d0).max() < 1e-10


@pytest.mark.parametrize("seed", [0, 4])
def test_oracle_commutes_with_axis_rotation(seed):
    cfg = SceneConfig(objects=3, frames=41, seed=seed)
    base = generate_scene(cfg)
    O = vertical_rotation(0.9 + seed)
    t = np.array([0.4, -0.1, 0.0])
    moved = generate_scene(cfg, ic_transform=SubgroupTransform(O=O, t=t))
    dev = np.abs(moved.frames - (base.frames @ O.T + t)).max()
    assert dev < 1e-9


def test_oracle_rejects_reflection_ics():
    cfg = SceneConfig(objects=1, frames=2, seed=0)
    O = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ContractError):
        generate_scene(cfg, ic_transform=SubgroupTransform(O=O))


def test_energy_non_increasing_in_free_flight():
    # fine steps so the per-step dissipation of the scheme stays tiny
    cfg = SceneConfig(objects=1, ground=False, frames=3, seed=5, dt=2e-4,
                      record_every=1, drop_height=1.0)
    rng = np.random.default_rng(cfg.seed)
    bodies = _make_bodies(cfg, rng, cfg.gravity)
    b = bodies[0]
    b.vel = np.array([0.4, -0.2, 0.6])
    b.omega = np.array([0.8, 0.5, -0.3])

    def energy(body):
        R = body.rotation()
        inertia = R @ body.inertia_body @ R.T
        kinetic = 0.5 * body.mass * body.vel @ body.vel
        spin = 0.5 * body.omega @ inertia @ body.omega
        potential = body.mass * cfg.gravity * body.com[2]
        return kinetic + spin + potential

    e0 = energy(b)
    energies = [e0]
    for _ in range(100):
        _step(bodies, cfg, cfg.gravity)
        energies.append(energy(b))
    drift = (e0 - energies[-1]) / abs(e0)
    assert drift >= -1e-12  # never increases
    assert abs(drift) < 1e-4  # bounded per 100 steps


def test_tunneling_raises_generation_error():
    cfg = SceneConfig(objects=2, frames=30, seed=6, dt=0.05, record_every=2,
                      drop_height=3.0)
    with pytest.raises(GenerationError):
        generate_scene(cfg)


def test_varying_gravity_sampling():
    cfg = SceneConfig(objects=1, frames=2, seed=9, gravity_min=5.0, gravity_max=15.0)
    t1 = generate_scene(cfg)
    cfg2 = SceneConfig(objects=1, frames=2, seed=10, gravity_min=5.0, gravity_max=15.0)
    t2 = generate_scene(cfg2)
    assert t1.attrs[0, 0] != t2.attrs[0, 0]
    assert 0.5 <= t1.attrs[0, 0] <= 1.5


# -------------------------------------------------------------------- metrics

def make_traj(frames, objects=None):
    frames = np.asarray(frames, dtype=float)
    n = frames.shape[1]
    return Trajectory(
        frames=frames,
        object_of=np.zeros(n, dtype=int) if objects is None else objects,
        attrs=np.ones((n, 1)),
        dt=0.02,
    )


def test_rollout_mse_zero_for_equal():
    rng = np.random.default_rng(0)
    t = make_traj(rng.normal(size=(5, 4, 3)))
    assert rollout_mse(t, t, 3) == 0.0


def test_rollout_mse_uniform_offset():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(4, 6, 3))
    d = 0.37
    a = make_traj(base)
    b = make_traj(base + d)
    np.testing.assert_allclose(rollout_mse(b, a, 2), 3 * d * d, rtol=1e-12)


def test_rollout_mse_matches_naive_loop():
    rng = np.random.default_rng(2)
    a = make_traj(rng.normal(size=(6, 5, 3)))
    b = make_traj(rng.normal(size=(6, 5, 3)))
    t = 4
    total = 0.0
    for i in range(5):
        diff = a.frames[t, i] - b.frames[t, i]
        total += diff @ diff
    np.testing.assert_allclose(rollout_mse(a, b, t), total / 5)


def test_contact_accuracy_trivial_and_naive():
    rng = np.random.default_rng(3)
    obj = np.array([0, 0, 1, 1])
    truths, preds_far = [], []
    for k in range(20):
        frames = rng.normal(size=(6, 4, 3))
        truth = make_traj(frames, obj)
        truths.append(truth)
        far = frames.copy()
        far[:, 2:, :] += 100.0  # keep objects at least 10x threshold apart
        preds_far.append(make_traj(far, obj))
    assert contact_accuracy(truths, truths, (0, 1), threshold=0.5) == 1.0

    truly_contacting = [t for t in truths if objects_contact(t, 0, 1, 0.5)]
    if truly_contacting:
        acc = contact_accuracy(preds_far, truths, (0, 1), threshold=0.5)
        # naive per-frame scan oracle
        hits = 0
        for p, g in zip(preds_far, truths):
            pc = any(min_object_distance(p, 0, 1, t) < 0.5 for t in range(6))
            gc = any(min_object_distance(g, 0, 1, t) < 0.5 for t in range(6))
            hits += pc == gc
        assert acc == hits / 20


# -------------------------------------------------------------- serialization

def test_save_load_bit_exact(tmp_path):
    traj = generate_scene(SceneConfig(objects=2, frames=8, seed=11))
    path = tmp_path / "t.sgtj"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.frames, traj.frames)
    assert np.array_equal(back.object_of, traj.object_of)
    assert np.array_equal(back.attrs, traj.attrs)
    assert back.dt == traj.dt


def test_truncated_file_errors_with_offset(tmp_path):
    traj = generate_scene(SceneConfig(objects=1, frames=4, seed=12))
    path = tmp_path / "t.sgtj"
    save_trajectory(traj, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 17])
    with pytest.raises(TrajectoryParseError) as err:
        load_trajectory(path)
    assert err.value.offset > 0


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.sgtj"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(TrajectoryParseError):
        load_trajectory(path)


def test_header_only_empty_trajectory_round_trip(tmp_path):
    empty = Trajectory(
        frames=np.zeros((0, 5, 3)),
        object_of=np.zeros(5, dtype=int),
        attrs=np.ones((5, 2)),
        dt=0.01,
    )
    path = tmp_path / "empty.sgtj"
    save_trajectory(empty, path)
    back = load_trajectory(path)
    assert back.n_frames == 0
    assert back.n_particles == 5


def trajectory_fields(n=4):
    return dict(frames=np.zeros((3, n, 3)), object_of=np.array([0, 0, 1, 1][:n]),
                attrs=np.ones((n, 2)), dt=0.01)


@pytest.mark.parametrize("field,value,error", [
    ("object_of", np.zeros((4, 1), dtype=int), ShapeError),
    ("object_of", np.zeros(3, dtype=int), ShapeError),
    ("attrs", np.ones((3, 2)), ShapeError),
    ("frames", np.full((3, 4, 3), np.nan), ContractError),
    ("frames", np.array([[[0.0, 0.0, np.inf]] * 4] * 3), ContractError),
    ("object_of", np.array([0, -1, 1, 1]), ContractError),
    ("object_of", np.array([0, 0, 2, 2]), ContractError),
])
def test_trajectory_rejects_malformed_fields(field, value, error):
    kwargs = trajectory_fields()
    kwargs[field] = value
    with pytest.raises(error):
        Trajectory(**kwargs)


@pytest.mark.parametrize("offset,payload", [
    (24, np.array([0, 0, 2, 2], dtype="<u4").tobytes()),  # object table
    (-8, np.array([np.nan]).tobytes()),  # last frame coordinate
], ids=["object-gap", "nan-frame"])
def test_load_trajectory_rejects_invalid_contents(tmp_path, offset, payload):
    path = tmp_path / "bad.sgtj"
    save_trajectory(Trajectory(**trajectory_fields()), path)
    data = bytearray(path.read_bytes())
    start = offset % len(data)
    data[start:start + len(payload)] = payload
    path.write_bytes(bytes(data))
    with pytest.raises(ContractError):
        load_trajectory(path)


def test_system_at_finite_difference_velocities():
    traj = generate_scene(SceneConfig(objects=1, frames=5, seed=13))
    sys_ = traj.system_at(2)
    np.testing.assert_array_equal(sys_.velocities, traj.frames[2] - traj.frames[1])
    with pytest.raises(ContractError):
        traj.system_at(0)
