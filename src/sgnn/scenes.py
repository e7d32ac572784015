"""Synthetic rigid-cube scenes with an exact reference integrator, metric
helpers, and trajectory serialization.

The generator drops lattice-sampled cubes under gravity with penalty-based
contacts (spring plus damper, regularized Coulomb friction) against the
ground plane and between objects, integrated with semi-implicit Euler on
center-of-mass plus quaternion state.  Particle positions are reconstructed
from the body frame every step, so intra-object distances are preserved to
rounding.  Every step of the force model commutes with rotations and
reflections about the gravity axis, which makes generated trajectories a
ground truth for the rotation-generalization experiments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .checkpoint import _Reader
from .errors import ContractError, GenerationError, ShapeError, TrajectoryParseError
from .geometry import Gravity
from .graph import ParticleSystem, _check_object_of

TRAJ_MAGIC = b"SGTJ"
TRAJ_VERSION = 1
_UP = np.array([0.0, 0.0, 1.0])  # the ground normal and the vertical axis


@dataclass
class SceneConfig:
    """Knobs of the cube-drop generator; all lengths in meters, times in
    seconds.  ``frames`` counts recorded frames; the integrator takes
    ``record_every`` substeps of size ``dt`` between them."""

    objects: int = 3
    lattice: int = 3          # particles per cube edge
    cube_side: float = 0.05
    gravity: float = 9.8
    gravity_min: float = 0.0  # >0 enables per-scene gravity sampling
    gravity_max: float = 0.0
    ground: bool = True
    ground_height: float = 0.0
    stiffness: float = 5000.0
    damping: float = 20.0
    friction: float = 0.3
    friction_smoothing: float = 0.02  # m/s; tangential speed below which friction acts viscously
    restitution: float = 0.0
    particle_mass: float = 1.0 / 27.0  # unit cube mass at the default 3^3 lattice
    contact_radius: float = 0.0  # 0 = lattice spacing
    dt: float = 1.0 / 250.0
    record_every: int = 5
    frames: int = 41
    drop_height: float = 0.12
    spread: float = 0.05
    push_speed: float = 0.0   # horizontal initial speed along the bias direction
    bias_angle: float = 0.0   # radians; direction of offsets and pushes
    randomize_bias: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.objects < 1 or self.lattice < 2 or self.frames < 1 or self.record_every < 1:
            raise ContractError(
                "need at least one object, 2^3 lattice, one frame, one substep per frame"
            )
        for name in ("cube_side", "gravity", "stiffness", "damping", "friction_smoothing",
                     "particle_mass", "dt"):
            if not 0 < getattr(self, name) < np.inf:
                raise ContractError(f"{name} must be positive and finite")
        for name, top in (("contact_radius", np.inf), ("friction", np.inf), ("restitution", 1)):
            value = getattr(self, name)
            if not (0 <= value <= top and np.isfinite(value)):
                raise ContractError(f"{name} must be finite and lie in [0, {top}]")
        for name in ("drop_height", "spread", "push_speed", "bias_angle", "ground_height"):
            if not np.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite")
        low, high = self.gravity_min, self.gravity_max
        if (low or high) and not 0 < low < high < np.inf:
            raise ContractError("need 0 < gravity_min < gravity_max < inf, or both 0")
        if not np.isfinite(self.dt * self.frames * self.record_every):
            raise ContractError("dt * frames must be finite")

    @property
    def spacing(self) -> float:
        return self.cube_side / (self.lattice - 1)

    def effective_contact_radius(self) -> float:
        return self.contact_radius if self.contact_radius > 0 else self.spacing


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}
_PARSERS = {"bool": (lambda v: _BOOLEANS[v.lower()], "a boolean (true/false, 1/0, yes/no, on/off)"),
            "int": (int, "an integer"), "float": (float, "a number")}
_CONFIG_PARSERS = {f.name: _PARSERS[f.type] for f in fields(SceneConfig)}


def parse_scene_config(text: str) -> SceneConfig:
    """key=value per line; '#' comments.  An unknown or repeated key, or a value
    not of its key's type, raises ``ContractError`` naming the line and key."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise ContractError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ContractError(f"line {lineno}: repeated key {key!r}")
        parse, kind = _CONFIG_PARSERS[key]
        try:
            values[key] = parse(val)
        except (KeyError, ValueError):
            raise ContractError(f"line {lineno}: {key}={val!r} is not {kind}") from None
    return SceneConfig(**values)


def format_scene_config(cfg: SceneConfig) -> str:
    lines = []
    for f in fields(SceneConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


@dataclass
class Trajectory:
    """Recorded positions per frame plus static particle metadata."""

    frames: np.ndarray  # (T, N, 3)
    object_of: np.ndarray  # (N,)
    attrs: np.ndarray  # (N, n)
    dt: float  # seconds per recorded frame

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.object_of = np.asarray(self.object_of, dtype=np.int64)
        self.attrs = np.atleast_2d(np.asarray(self.attrs, dtype=np.float64))
        if self.frames.ndim != 3 or self.frames.shape[2] != 3:
            raise ShapeError("frames must be (T, N, 3)")
        n = self.frames.shape[1]
        if self.object_of.shape != (n,):
            raise ShapeError("object_of must be (N,)")
        if self.attrs.shape[0] != n:
            raise ShapeError("attrs must have N rows")
        if n == 0:
            raise ContractError("a trajectory needs at least one particle")
        if not np.isfinite(self.frames).all():
            raise ContractError("non-finite frame positions")
        _check_object_of(self.object_of)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_particles(self) -> int:
        return self.frames.shape[1]

    def system_at(self, t: int) -> ParticleSystem:
        """Frame ``t`` as a particle system; velocities are the one-frame
        finite differences, so ``t`` must be at least 1."""
        if t < 1 or t >= self.n_frames:
            raise ContractError("system_at needs 1 <= t < n_frames")
        return ParticleSystem(
            positions=self.frames[t],
            velocities=self.frames[t] - self.frames[t - 1],
            attrs=self.attrs,
            object_of=self.object_of,
        )


# ------------------------------------------------------------ the integrator

def _cube_offsets(cfg: SceneConfig) -> np.ndarray:
    grid = np.linspace(-cfg.cube_side / 2.0, cfg.cube_side / 2.0, cfg.lattice)
    pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    return pts


def _rotations(quats: np.ndarray) -> np.ndarray:
    """Rotation matrices (K, 3, 3) of unit quaternions (K, 4) in (w, x, y, z),
    in Python floats: the same IEEE double arithmetic at less cost per call
    than numpy scalars or length-K arrays."""
    return np.array([
        [[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
         [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
         [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]]
        for w, x, y, z in quats.tolist()
    ])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` over the last axis of broadcastable (..., 3) arrays: the
    same products and differences, so the same bits, without the axis
    wrappers that dominate its cost on small arrays."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(c0.shape + (3,))
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a C-contiguous (K, n) array, bit for
    bit: the batched (1, n) @ (n, 1) product runs the norm's BLAS dot."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton products of quaternions (K, 4) in (w, x, y, z), row by row or
    of one ``a`` (4,) with every row of ``b``, in Python floats as in
    ``_rotations``."""
    rows = b.tolist()
    lefts = a.tolist() if a.ndim == 2 else [a.tolist()] * len(rows)
    return np.array([
        [aw * bw - ax * bx - ay * by - az * bz,
         aw * bx + ax * bw + ay * bz - az * by,
         aw * by - ax * bz + ay * bw + az * bx,
         aw * bz + ax * by - ay * bx + az * bw]
        for (aw, ax, ay, az), (bw, bx, by, bz) in zip(lefts, rows)
    ]).reshape(-1, 4)


def _quat_from_axis_angle(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Quaternions (K, 4) turning by ``angle`` (K,) about ``axis`` (K, 3),
    which need not be unit; a vanishing axis gives the identity."""
    n = _row_norms(axis)
    tiny = n < 1e-300
    half = 0.5 * angle
    s = np.sin(half) / np.where(tiny, 1.0, n)
    q = np.concatenate([np.cos(half)[:, None], axis * s[:, None]], axis=1)
    q[tiny] = (1.0, 0.0, 0.0, 0.0)
    return q


@dataclass
class _Bodies:
    """State of all bodies, one row per body, and the shared body shape."""

    com: np.ndarray  # (K, 3)
    quat: np.ndarray  # (K, 4)
    vel: np.ndarray  # (K, 3)
    omega: np.ndarray  # (K, 3), world frame
    offsets: np.ndarray  # (P, 3), body frame
    mass: float
    inertia_body: np.ndarray  # (3, 3)
    pairs: np.ndarray  # (K(K-1)/2, 2), every body pair a < b in order
    gravity_force: np.ndarray  # (K, 3)


def _pose(bodies: _Bodies):
    """Rotations (K, 3, 3) and world-frame particle offsets (K, P, 3)."""
    R = _rotations(bodies.quat)
    return R, bodies.offsets @ R.transpose(0, 2, 1)


def _make_bodies(cfg: SceneConfig, rng: np.random.Generator, gravity_mag: float) -> _Bodies:
    offsets = _cube_offsets(cfg)
    mass = cfg.particle_mass * offsets.shape[0]
    r2 = (offsets**2).sum(axis=1)
    inertia = cfg.particle_mass * (
        np.eye(3) * r2.sum() - offsets.T @ offsets
    )
    bias = cfg.bias_angle
    if cfg.randomize_bias:
        bias = rng.uniform(0.0, 2.0 * np.pi)
    direction = np.array([np.cos(bias), np.sin(bias), 0.0])
    side = np.array([-np.sin(bias), np.cos(bias), 0.0])
    com, quat, vel = [], [], []
    for k in range(cfg.objects):
        yaw = rng.uniform(0.0, 2.0 * np.pi)
        quat.append(_quat_from_axis_angle(np.array([[0.0, 0.0, 1.0]]), np.array([yaw]))[0])
        along = (k - (cfg.objects - 1) / 2.0) * cfg.spread
        lateral = rng.uniform(-0.25, 0.25) * cfg.spread
        if k == 0 and cfg.ground:
            # resting start: bottom layer at its static penalty equilibrium
            n_bottom = cfg.lattice**2
            sink = mass * gravity_mag / (cfg.stiffness * n_bottom)
            com_z = cfg.ground_height + cfg.cube_side / 2.0 - sink
            vel.append(np.zeros(3))
        else:
            com_z = cfg.ground_height + cfg.cube_side / 2.0 + cfg.drop_height * max(k, 1)
            com_z += rng.uniform(0.0, 0.02)
            vel.append(cfg.push_speed * direction)
        com.append(direction * along + side * lateral + np.array([0.0, 0.0, com_z]))
    n = cfg.objects
    return _Bodies(com=np.array(com), quat=np.array(quat), vel=np.array(vel),
                   omega=np.zeros((n, 3)), offsets=offsets, mass=mass, inertia_body=inertia,
                   pairs=np.stack(np.triu_indices(n, 1), axis=1),
                   gravity_force=np.zeros((n, 3)) + mass * np.array([0.0, 0.0, -gravity_mag]))


def _contact_force(penetration, normal, rel_vel, cfg: SceneConfig):
    """Spring-damper normal force with regularized Coulomb friction.
    ``penetration`` (P,), ``normal`` (P, 3) or one (3,) for all,
    ``rel_vel`` (P, 3)."""
    k = cfg.stiffness
    c = cfg.damping * (1.0 - cfg.restitution)
    vn = (rel_vel * normal).sum(axis=1)
    fn_mag = np.maximum(k * penetration - c * vn, 0.0)
    fn = fn_mag[:, None] * normal
    vt = rel_vel - vn[:, None] * normal
    vt_norm = np.sqrt((vt * vt).sum(axis=1))
    # the smoothing floor keeps the near-rest viscous coefficient small
    # enough for the explicit step to stay stable (no chatter at rest)
    ft = -cfg.friction * fn_mag[:, None] * vt / np.maximum(vt_norm, cfg.friction_smoothing)[:, None]
    return fn + ft


def _step(bodies: _Bodies, cfg: SceneConfig, gravity_mag: float) -> None:
    """Advance every body by one substep of ``cfg.dt``, all bodies at once.

    Loops remain only where batching would change rounding: each body's
    force and torque sums keep the per-body order (gravity, ground, then
    pairs a < b, each pair into a and then b).  Every float is rounded as in
    the per-body reference step ``loop_step`` in ``tests/helpers.py``.
    Quaternion products run on Python floats; the pair table and gravity
    rows (for ``gravity_mag``) come once per scene from ``_make_bodies``.
    """
    com, vel, omega, mass = bodies.com, bodies.vel, bodies.omega, bodies.mass
    n_bodies = com.shape[0]
    R, world = _pose(bodies)
    positions = com[:, None, :] + world
    velocities = vel[:, None, :] + _cross(omega[:, None, :], world)
    forces = bodies.gravity_force.copy()
    torques = np.zeros((n_bodies, 3))

    if cfg.ground:
        pen = cfg.ground_height - positions[:, :, 2]
        if (np.maximum.reduce(pen, 1) > cfg.cube_side).any():
            raise GenerationError("ground tunneling detected; reduce dt or stiffness")
        kk, pp = np.nonzero(pen > 0.0)
        if kk.size:
            f = _contact_force(pen[kk, pp], _UP, velocities[kk, pp], cfg)
            arm = _cross(positions[kk, pp] - com[kk], f)
            bounds = np.searchsorted(kk, np.arange(n_bodies + 1)).tolist()
            for k in range(n_bodies):
                lo, hi = bounds[k], bounds[k + 1]
                if hi > lo:
                    forces[k] += np.add.reduce(f[lo:hi], 0)
                    torques[k] += np.add.reduce(arm[lo:hi], 0)

    rc = cfg.effective_contact_radius()
    reach = np.sqrt(3.0) * cfg.cube_side + rc
    pairs = bodies.pairs
    gaps = _row_norms(com[pairs[:, 0]] - com[pairs[:, 1]])
    if (gaps < 0.5 * cfg.cube_side).any():
        raise GenerationError("object interpenetration deeper than the cube side; reduce dt")
    for a, b in pairs[~(gaps > reach)].tolist():
        diff = positions[a][:, None, :] - positions[b][None, :, :]
        dist = np.sqrt(np.add.reduce(diff * diff, 2))
        ia, ib = np.nonzero(dist < rc)
        if ia.size == 0:
            continue
        d = dist[ia, ib]
        normal = diff[ia, ib] / np.maximum(d, 1e-12)[:, None]
        f = _contact_force(rc - d, normal, velocities[a][ia] - velocities[b][ib], cfg)
        f_sum = np.add.reduce(f, 0)
        forces[a] += f_sum
        torques[a] += np.add.reduce(_cross(positions[a][ia] - com[a], f), 0)
        forces[b] -= f_sum
        torques[b] += np.add.reduce(_cross(positions[b][ib] - com[b], -f), 0)

    inertia_world = R @ bodies.inertia_body @ R.transpose(0, 2, 1)
    gyro = _cross(omega, (inertia_world @ omega[:, :, None])[:, :, 0])
    alpha = np.linalg.solve(inertia_world, (torques - gyro)[:, :, None])[:, :, 0]
    bodies.vel = vel + cfg.dt * forces / mass
    bodies.omega = omega + cfg.dt * alpha
    bodies.com = com + cfg.dt * bodies.vel
    spin = _row_norms(bodies.omega)
    turning = spin > 0.0
    w = spin[turning]
    dq = _quat_from_axis_angle(bodies.omega[turning] / w[:, None], w * cfg.dt)
    q = _quat_multiply(dq, bodies.quat[turning])
    bodies.quat[turning] = q / _row_norms(q)[:, None]


def _transform_bodies(bodies: _Bodies, transform) -> None:
    """Rotate (properly, about the vertical axis) and translate initial body
    states in place.  Reflections cannot be folded into an orientation
    quaternion and are rejected."""
    transform.validate(Gravity())
    O, t = transform.O, transform.t
    if np.linalg.det(O) < 0.0:
        raise ContractError("initial-condition transform must be a proper rotation about the vertical axis")
    theta = float(np.arctan2(O[1, 0], O[0, 0]))
    q_rot = _quat_from_axis_angle(_UP[None], np.array([theta]))[0]
    # one matrix-vector product per body: a batched ``com @ O.T`` rounds differently
    bodies.com = np.array([O @ c + t for c in bodies.com])
    bodies.vel = np.array([O @ v for v in bodies.vel])
    bodies.omega = np.array([O @ w for w in bodies.omega])
    bodies.quat = _quat_multiply(q_rot, bodies.quat)


def generate_scene(cfg: SceneConfig, ic_transform=None) -> Trajectory:
    """Simulate one seeded scene and record ``cfg.frames`` frames.

    Per-particle attrs are [gravity_scale, rigid_flag]; the first feeds the
    scale of gravity to learned models, the second tags the object as rigid
    for projection during evaluation.

    ``ic_transform`` applies a proper rotation about the vertical axis plus
    a translation to the initial body states before simulating; with a
    horizontal translation this is a symmetry of the dynamics, which makes
    rotate-then-simulate versus simulate-then-rotate an exact oracle.
    """
    rng = np.random.default_rng(cfg.seed)
    gravity_mag = cfg.gravity
    if cfg.gravity_max > cfg.gravity_min > 0.0:
        gravity_mag = float(rng.uniform(cfg.gravity_min, cfg.gravity_max))
    bodies = _make_bodies(cfg, rng, gravity_mag)
    if ic_transform is not None:
        _transform_bodies(bodies, ic_transform)
    n_per = bodies.offsets.shape[0]
    n = n_per * cfg.objects
    object_of = np.repeat(np.arange(cfg.objects), n_per)
    attrs = np.tile(np.array([gravity_mag / 10.0, 1.0]), (n, 1))

    frames = np.zeros((cfg.frames, n, 3))
    for t in range(cfg.frames):
        if t:
            for _ in range(cfg.record_every):
                _step(bodies, cfg, gravity_mag)
        _, world = _pose(bodies)
        frames[t] = (bodies.com[:, None, :] + world).reshape(n, 3)
    return Trajectory(
        frames=frames,
        object_of=object_of,
        attrs=attrs,
        dt=cfg.dt * cfg.record_every,
    )


# ------------------------------------------------------------------ metrics

def rollout_mse(pred: Trajectory, truth: Trajectory, t: int) -> float:
    """Mean over particles of the squared position error at frame ``t``."""
    if pred.frames.shape != truth.frames.shape:
        raise ShapeError("trajectories must have identical shape")
    if not 0 <= t < truth.n_frames:
        raise ShapeError(f"frame {t} out of range")
    diff = pred.frames[t] - truth.frames[t]
    return float((diff**2).sum(axis=1).mean())


def min_object_distance(traj: Trajectory, k: int, l: int, t: int) -> float:
    a = traj.frames[t][traj.object_of == k]
    b = traj.frames[t][traj.object_of == l]
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).min())


def objects_contact(traj: Trajectory, k: int, l: int, threshold: float) -> bool:
    """True when the two objects come within ``threshold`` at any frame."""
    return any(
        min_object_distance(traj, k, l, t) < threshold for t in range(traj.n_frames)
    )


def contact_accuracy(
    preds: list[Trajectory],
    truths: list[Trajectory],
    pair: tuple[int, int],
    threshold: float,
) -> float:
    """Fraction of trajectories whose predicted contact verdict for the
    object pair matches the ground truth."""
    if len(preds) != len(truths):
        raise ShapeError("prediction/truth counts differ")
    k, l = pair
    hits = sum(objects_contact(p, k, l, threshold) == objects_contact(g, k, l, threshold)
               for p, g in zip(preds, truths))
    return hits / len(preds) if preds else 0.0


# -------------------------------------------------------------- serialization

def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC)
        f.write(struct.pack("<I", TRAJ_VERSION))
        f.write(struct.pack("<II", traj.n_particles, traj.n_frames))
        f.write(struct.pack("<d", traj.dt))
        f.write(np.ascontiguousarray(traj.object_of, dtype="<u4").tobytes())
        f.write(struct.pack("<I", traj.attrs.shape[1]))
        f.write(np.ascontiguousarray(traj.attrs, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(traj.frames, dtype="<f8").tobytes())


def load_trajectory(path) -> Trajectory:
    cur = _Reader(Path(path).read_bytes(),
                  lambda at, what: TrajectoryParseError(at, f"{path}: truncated {what}"))
    if cur.take(4, "magic") != TRAJ_MAGIC:
        raise TrajectoryParseError(0, f"{path}: bad magic")
    (version,) = cur.unpack("<I", "version")
    if version != TRAJ_VERSION:
        raise TrajectoryParseError(4, f"{path}: unsupported version {version}")
    n, t = cur.unpack("<II", "counts")
    (dt,) = cur.unpack("<d", "dt")
    object_of = np.frombuffer(cur.take(4 * n, "object table"), dtype="<u4").astype(np.int64)
    (n_attrs,) = cur.unpack("<I", "attr dims")
    attrs = cur.floats((n, n_attrs), "attr payload")
    frames = cur.floats((t, n, 3), "frame payload")
    if cur.offset != len(cur.data):
        raise TrajectoryParseError(cur.offset, f"{path}: trailing bytes")
    return Trajectory(frames=frames, object_of=object_of, attrs=attrs, dt=dt)
