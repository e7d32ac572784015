"""Oracle integrator, metrics, and trajectory file round trips."""

import numpy as np
import pytest

from helpers import loop_step, quat_from_axis_angle, quat_multiply, quat_to_matrix
from sgnn import scenes
from sgnn.errors import ContractError, GenerationError, ShapeError, TrajectoryParseError
from sgnn.geometry import SubgroupTransform
from sgnn.scenes import (
    SceneConfig,
    Trajectory,
    _cross,
    _make_bodies,
    _quat_from_axis_angle,
    _quat_multiply,
    _rotations,
    _row_norms,
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


@pytest.mark.parametrize("text, message", [
    ("objects=2\nwarp_factor=9\n", "line 2: unknown key 'warp_factor'"),
    ("objects=2\nobjects=3\n", "line 2: repeated key 'objects'"),
    # Python's int and float errors used to escape as a bare ValueError
    ("objects=abc\n", "line 1: objects='abc' is not an integer"),
    ("frames=1e3\n", "line 1: frames='1e3' is not an integer"),
    ("seed=2\ncube_side=wide\n", "line 2: cube_side='wide' is not a number"),
    # any unlisted spelling used to read as false
    ("ground=maybe\n", "line 1: ground='maybe' is not a boolean"),
    ("ground=\n", "line 1: ground='' is not a boolean"),
], ids=["unknown-key", "repeated-key", "int", "int-exponent", "float", "bool", "empty-bool"])
def test_config_rejects_malformed_lines(text, message):
    with pytest.raises(ContractError, match=message):
        parse_scene_config(text)


def test_config_reads_the_listed_boolean_spellings_in_any_case():
    for word, value in (("true", True), ("ON", True), ("Yes", True), ("1", True),
                        ("false", False), ("Off", False), ("NO", False), ("0", False)):
        assert parse_scene_config(f"ground={word}\n").ground is value


def test_config_rejects_nonpositive():
    with pytest.raises(ContractError):
        SceneConfig(dt=-0.1)


@pytest.mark.parametrize("value", [0.0, -0.02])
def test_config_rejects_nonpositive_friction_smoothing(value):
    # zero smoothing divides 0/0 at a resting contact, late in the simulation
    with pytest.raises(ContractError, match="friction_smoothing"):
        SceneConfig(friction_smoothing=value)


@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_record_every_below_one(value):
    # zero substeps per frame would record frame 0 over and over
    with pytest.raises(ContractError, match="substep"):
        SceneConfig(record_every=value)


INVALID_PHYSICS = [
    (dict(contact_radius=-0.01), "contact_radius"),  # used to fall back to the spacing
    (dict(restitution=1.5), "restitution"),  # used to make the damping negative
    (dict(restitution=-0.2), "restitution"),
    (dict(friction=-0.1), "friction"),
    # a one-sided or empty gravity range used to fall back to fixed gravity
    (dict(gravity_min=5.0), "gravity_min"),
    (dict(gravity_max=15.0), "gravity_max"),
    (dict(gravity_min=12.0, gravity_max=6.0), "gravity_min"),
    (dict(gravity_min=6.0, gravity_max=6.0), "gravity_max"),
    (dict(gravity_min=6.0, gravity_max=np.inf), "gravity_max"),
    (dict(friction=np.inf), "friction"),
    (dict(contact_radius=np.nan), "contact_radius"),
    # non-finite values used to pass the positivity checks
    (dict(stiffness=np.nan), "stiffness"),
    (dict(gravity=np.inf), "gravity"),
    # used to fail only after the whole simulation, naming no key
    (dict(drop_height=np.nan), "drop_height"),
    (dict(spread=np.inf), "spread"),
    (dict(push_speed=-np.inf), "push_speed"),
    (dict(bias_angle=np.nan), "bias_angle"),
    (dict(ground_height=np.inf), "ground_height"),
    # used to fail inside numpy's generator, naming no key
    (dict(seed=-1), "seed"),
]


@pytest.mark.parametrize("knobs, key", INVALID_PHYSICS,
                         ids=lambda k: ",".join(f"{a}={v}" for a, v in k.items())
                         if isinstance(k, dict) else k)
@pytest.mark.parametrize("via", ["SceneConfig", "parse_scene_config"])
def test_config_rejects_invalid_physics(knobs, key, via):
    with pytest.raises(ContractError, match=key):
        if via == "SceneConfig":
            SceneConfig(**knobs)
        else:
            parse_scene_config("".join(f"{k}={v}\n" for k, v in knobs.items()))


def test_config_accepts_physics_bounds():
    for knobs in (dict(contact_radius=0.0, friction=0.0, restitution=0.0),
                  dict(restitution=1.0), dict(gravity_min=0.5, gravity_max=0.6)):
        assert parse_scene_config(format_scene_config(SceneConfig(**knobs))) == SceneConfig(**knobs)


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


@pytest.mark.parametrize("O,message", [
    (np.diag([2.0, 2.0, 1.0]), "not orthogonal"),
    (np.full((3, 3), np.nan), "non-finite"),
], ids=["scaling", "nan"])
def test_oracle_rejects_ics_that_are_not_rotations(O, message):
    cfg = SceneConfig(objects=2, frames=2, seed=0)
    with pytest.raises(ContractError, match=message):
        generate_scene(cfg, ic_transform=SubgroupTransform(O=O))


def test_energy_non_increasing_in_free_flight():
    # fine steps so the per-step dissipation of the scheme stays tiny
    cfg = SceneConfig(objects=1, ground=False, frames=3, seed=5, dt=2e-4,
                      record_every=1, drop_height=1.0)
    rng = np.random.default_rng(cfg.seed)
    bodies = _make_bodies(cfg, rng, cfg.gravity)
    bodies.vel[0] = [0.4, -0.2, 0.6]
    bodies.omega[0] = [0.8, 0.5, -0.3]

    def energy():
        R = _rotations(bodies.quat)[0]
        inertia = R @ bodies.inertia_body @ R.T
        vel, omega = bodies.vel[0], bodies.omega[0]
        kinetic = 0.5 * bodies.mass * vel @ vel
        spin = 0.5 * omega @ inertia @ omega
        potential = bodies.mass * cfg.gravity * bodies.com[0, 2]
        return kinetic + spin + potential

    e0 = energy()
    energies = [e0]
    for _ in range(100):
        _step(bodies, cfg, cfg.gravity)
        energies.append(energy())
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


def test_batched_kernels_match_numpy_bit_for_bit():
    rng = np.random.default_rng(11)
    q = rng.normal(size=(64, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    R = _rotations(q)
    assert all(R[k].tobytes() == quat_to_matrix(q[k]).tobytes() for k in range(64))
    a, b = rng.normal(size=(5, 1, 3)), rng.normal(size=(5, 27, 3))
    assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
    v = rng.normal(size=(64, 4)) * 10.0 ** rng.integers(-8, 8, size=(64, 1))
    assert _row_norms(v).tobytes() == np.array([np.linalg.norm(x) for x in v]).tobytes()
    axis, angle = rng.normal(size=(64, 3)), rng.uniform(-1.0, 1.0, size=64)
    axis[3] = 0.0
    dq = _quat_from_axis_angle(axis, angle)
    assert all(dq[k].tobytes() == quat_from_axis_angle(axis[k], angle[k]).tobytes()
               for k in range(64))
    for rows in (0, 1, 64):
        prod = _quat_multiply(dq[:rows], q[:rows])
        assert prod.shape == (rows, 4)
        assert all(prod[k].tobytes() == quat_multiply(dq[k], q[k]).tobytes() for k in range(rows))
    # one quaternion times every row, as ``_transform_bodies`` turns all bodies
    for rows in (1, 64):
        prod = _quat_multiply(dq[7], q[:rows])
        assert prod.shape == (rows, 4)
        assert all(prod[k].tobytes() == quat_multiply(dq[7], q[k]).tobytes() for k in range(rows))


def test_substep_without_turning_bodies_matches_per_body_loop():
    # free fall far apart: no torque, so no body turns and no quaternion changes
    cfg = SceneConfig(objects=3, ground=False, spread=0.3, seed=8)
    fast = _make_bodies(cfg, np.random.default_rng(cfg.seed), cfg.gravity)
    slow = _make_bodies(cfg, np.random.default_rng(cfg.seed), cfg.gravity)
    quat0 = fast.quat.tobytes()
    for _ in range(3):
        _step(fast, cfg, cfg.gravity)
        loop_step(slow, cfg, cfg.gravity)
        assert not fast.omega.any()
    assert fast.quat.tobytes() == quat0
    for name in ("com", "quat", "vel", "omega"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()


def oracle_outcome(monkeypatch, step, cfg, ic_transform=None):
    """Frame bytes of ``generate_scene`` run with ``step`` as its substep, or
    the GenerationError message and the substep that raised it."""
    calls = []

    def counted(bodies, cfg_, gravity_mag):
        calls.append(None)
        step(bodies, cfg_, gravity_mag)

    monkeypatch.setattr(scenes, "_step", counted)
    try:
        return generate_scene(cfg, ic_transform=ic_transform).frames.tobytes()
    except GenerationError as err:
        return str(err), len(calls)


ORACLE_GRID = [
    dict(objects=objects, lattice=lattice, ground=ground)
    for objects in (1, 3, 4) for lattice in (2, 3, 4) for ground in (True, False)
] + [
    dict(gravity_min=5.0, gravity_max=15.0),
    dict(randomize_bias=True),
    dict(restitution=0.5, contact_radius=0.03),
    dict(ic_transform=0.9),
    dict(objects=4, spread=0.035),  # a body touching two others at once
    dict(spread=0.051),  # near-touching neighbours
    # six cubes scattered in a random direction: in 39 of the 195 substeps of
    # a body pair within the centre reach, the pair's particle bounding boxes
    # lie more than rc apart, so only the distance block rules out contact
    dict(objects=6, randomize_bias=True),
] + [
    # the benchmark's own scene
    dict(objects=3, lattice=3, frames=41, push_speed=0.25, drop_height=0.12, seed=seed)
    for seed in (0, 301)
]


@pytest.mark.parametrize("knobs", ORACLE_GRID,
                         ids=lambda k: ",".join(f"{a}={v}" for a, v in k.items()))
def test_oracle_matches_per_body_loop(knobs, monkeypatch):
    knobs = dict(knobs)
    ic = None
    if "ic_transform" in knobs:
        ic = SubgroupTransform(O=vertical_rotation(knobs.pop("ic_transform")),
                               t=np.array([0.3, -0.2, 0.0]))
    cfg = SceneConfig(**{"frames": 21, "push_speed": 0.25, "seed": 5, **knobs})
    fast = oracle_outcome(monkeypatch, _step, cfg, ic)
    assert isinstance(fast, bytes)
    assert fast == oracle_outcome(monkeypatch, loop_step, cfg, ic)


@pytest.mark.parametrize("knobs, message, substep", [
    (dict(objects=2, frames=30, seed=6, dt=0.05, record_every=2, drop_height=3.0),
     "ground tunneling", 17),
    # two cubes started at one centre, no ground: caught before any force
    (dict(objects=2, ground=False, spread=0.0, drop_height=0.0), "interpenetration", 1),
    # a cube dropped onto another with a coarse step, after contact forces
    (dict(objects=2, spread=0.0, drop_height=1.0, dt=0.01, frames=60), "interpenetration", 46),
])
def test_oracle_errors_match_per_body_loop(knobs, message, substep, monkeypatch):
    cfg = SceneConfig(**knobs)
    fast = oracle_outcome(monkeypatch, _step, cfg)
    assert message in fast[0] and fast[1] == substep
    assert fast == oracle_outcome(monkeypatch, loop_step, cfg)


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
    (24, np.array([0xFFFFFFFF], dtype="<u4").tobytes()),  # first object index
], ids=["object-gap", "nan-frame", "object-index-overflow"])
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
