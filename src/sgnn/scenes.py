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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ContractError, GenerationError, ShapeError, TrajectoryParseError
from .graph import ParticleSystem, _check_object_of

TRAJ_MAGIC = b"SGTJ"
TRAJ_VERSION = 1


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
        if self.objects < 1 or self.lattice < 2 or self.frames < 1:
            raise ContractError("need at least one object, 2^3 lattice, one frame")
        for name in ("cube_side", "gravity", "stiffness", "damping", "particle_mass", "dt"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if not np.isfinite(self.dt * self.frames * self.record_every):
            raise ContractError("dt * frames must be finite")

    @property
    def spacing(self) -> float:
        return self.cube_side / (self.lattice - 1)

    def effective_contact_radius(self) -> float:
        return self.contact_radius if self.contact_radius > 0 else self.spacing


_CONFIG_TYPES = {f.name: f.type for f in fields(SceneConfig)}


def parse_scene_config(text: str) -> SceneConfig:
    """key=value per line; '#' comments; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ContractError(f"line {lineno}: unknown key {key!r}")
        kind = _CONFIG_TYPES[key]
        if kind in ("bool", bool):
            values[key] = val.lower() in ("1", "true", "yes", "on")
        elif kind in ("int", int):
            values[key] = int(val)
        else:
            values[key] = float(val)
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


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def _quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    n = np.linalg.norm(axis)
    if n < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = 0.5 * angle
    s = np.sin(half) / n
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


@dataclass
class _Body:
    com: np.ndarray
    quat: np.ndarray
    vel: np.ndarray
    omega: np.ndarray  # world frame
    offsets: np.ndarray  # body frame (P, 3)
    mass: float
    inertia_body: np.ndarray  # (3, 3)

    def rotation(self) -> np.ndarray:
        return _quat_to_matrix(self.quat)

    def particle_positions(self) -> np.ndarray:
        return self.com + self.offsets @ self.rotation().T

    def particle_velocities(self) -> np.ndarray:
        world = self.offsets @ self.rotation().T
        return self.vel + np.cross(self.omega, world)


def _make_bodies(cfg: SceneConfig, rng: np.random.Generator, gravity_mag: float) -> list[_Body]:
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
    bodies = []
    for k in range(cfg.objects):
        yaw = rng.uniform(0.0, 2.0 * np.pi)
        quat = _quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw)
        along = (k - (cfg.objects - 1) / 2.0) * cfg.spread
        lateral = rng.uniform(-0.25, 0.25) * cfg.spread
        if k == 0 and cfg.ground:
            # resting start: bottom layer at its static penalty equilibrium
            n_bottom = cfg.lattice**2
            sink = mass * gravity_mag / (cfg.stiffness * n_bottom)
            com_z = cfg.ground_height + cfg.cube_side / 2.0 - sink
            vel = np.zeros(3)
        else:
            com_z = cfg.ground_height + cfg.cube_side / 2.0 + cfg.drop_height * max(k, 1)
            com_z += rng.uniform(0.0, 0.02)
            vel = cfg.push_speed * direction
        com = direction * along + side * lateral
        com = com + np.array([0.0, 0.0, com_z])
        bodies.append(
            _Body(
                com=com,
                quat=quat,
                vel=vel.copy(),
                omega=np.zeros(3),
                offsets=offsets,
                mass=mass,
                inertia_body=inertia,
            )
        )
    return bodies


def _contact_force(penetration, normal, rel_vel, cfg: SceneConfig):
    """Spring-damper normal force with regularized Coulomb friction.
    ``penetration`` (P,), ``normal`` (P, 3), ``rel_vel`` (P, 3)."""
    k = cfg.stiffness
    c = cfg.damping * (1.0 - cfg.restitution)
    vn = (rel_vel * normal).sum(axis=1)
    fn_mag = np.maximum(k * penetration - c * vn, 0.0)
    fn = fn_mag[:, None] * normal
    vt = rel_vel - vn[:, None] * normal
    vt_norm = np.linalg.norm(vt, axis=1)
    # the smoothing floor keeps the near-rest viscous coefficient small
    # enough for the explicit step to stay stable (no chatter at rest)
    ft = -cfg.friction * fn_mag[:, None] * vt / np.maximum(vt_norm, cfg.friction_smoothing)[:, None]
    return fn + ft


def _step(bodies: list[_Body], cfg: SceneConfig, gravity_mag: float) -> None:
    g_vec = np.array([0.0, 0.0, -gravity_mag])
    n_bodies = len(bodies)
    forces = [np.zeros(3) for _ in range(n_bodies)]
    torques = [np.zeros(3) for _ in range(n_bodies)]
    positions = [b.particle_positions() for b in bodies]
    velocities = [b.particle_velocities() for b in bodies]

    for k, b in enumerate(bodies):
        forces[k] += b.mass * g_vec

    if cfg.ground:
        for k, b in enumerate(bodies):
            pen = cfg.ground_height - positions[k][:, 2]
            touching = pen > 0.0
            if not touching.any():
                continue
            if pen.max() > cfg.cube_side:
                raise GenerationError(
                    "ground tunneling detected; reduce dt or stiffness"
                )
            normal = np.tile(np.array([0.0, 0.0, 1.0]), (int(touching.sum()), 1))
            f = _contact_force(pen[touching], normal, velocities[k][touching], cfg)
            forces[k] += f.sum(axis=0)
            torques[k] += np.cross(positions[k][touching] - b.com, f).sum(axis=0)

    rc = cfg.effective_contact_radius()
    for a in range(n_bodies):
        for bdy in range(a + 1, n_bodies):
            gap = np.linalg.norm(bodies[a].com - bodies[bdy].com)
            if gap < 0.5 * cfg.cube_side:
                raise GenerationError("object interpenetration deeper than the cube side; reduce dt")
            reach = np.sqrt(3.0) * cfg.cube_side + rc
            if gap > reach:
                continue
            diff = positions[a][:, None, :] - positions[bdy][None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            ia, ib = np.nonzero(dist < rc)
            if ia.size == 0:
                continue
            d = dist[ia, ib]
            normal = diff[ia, ib] / np.maximum(d, 1e-12)[:, None]
            rel = velocities[a][ia] - velocities[bdy][ib]
            f = _contact_force(rc - d, normal, rel, cfg)
            forces[a] += f.sum(axis=0)
            torques[a] += np.cross(positions[a][ia] - bodies[a].com, f).sum(axis=0)
            forces[bdy] -= f.sum(axis=0)
            torques[bdy] += np.cross(positions[bdy][ib] - bodies[bdy].com, -f).sum(axis=0)

    for k, b in enumerate(bodies):
        R = b.rotation()
        inertia_world = R @ b.inertia_body @ R.T
        gyro = np.cross(b.omega, inertia_world @ b.omega)
        alpha = np.linalg.solve(inertia_world, torques[k] - gyro)
        b.vel = b.vel + cfg.dt * forces[k] / b.mass
        b.omega = b.omega + cfg.dt * alpha
        b.com = b.com + cfg.dt * b.vel
        w = np.linalg.norm(b.omega)
        if w > 0.0:
            dq = _quat_from_axis_angle(b.omega / w, w * cfg.dt)
            b.quat = _quat_multiply(dq, b.quat)
            b.quat = b.quat / np.linalg.norm(b.quat)


def _transform_bodies(bodies: list[_Body], transform) -> None:
    """Rotate (properly, about the vertical axis) and translate initial body
    states in place.  Reflections cannot be folded into an orientation
    quaternion and are rejected."""
    O = np.asarray(transform.O, dtype=np.float64)
    t = np.asarray(transform.t, dtype=np.float64)
    ez = np.array([0.0, 0.0, 1.0])
    if np.max(np.abs(O @ ez - ez)) > 1e-12 or np.linalg.det(O) < 0.0:
        raise ContractError("initial-condition transform must be a proper rotation about the vertical axis")
    theta = float(np.arctan2(O[1, 0], O[0, 0]))
    q_rot = _quat_from_axis_angle(ez, theta)
    for b in bodies:
        b.com = O @ b.com + t
        b.vel = O @ b.vel
        b.omega = O @ b.omega
        b.quat = _quat_multiply(q_rot, b.quat)


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
    n_per = bodies[0].offsets.shape[0]
    n = n_per * len(bodies)
    object_of = np.repeat(np.arange(len(bodies)), n_per)
    attrs = np.tile(np.array([gravity_mag / 10.0, 1.0]), (n, 1))

    frames = np.zeros((cfg.frames, n, 3))
    frames[0] = np.concatenate([b.particle_positions() for b in bodies], axis=0)
    for t in range(1, cfg.frames):
        for _ in range(cfg.record_every):
            _step(bodies, cfg, gravity_mag)
        frames[t] = np.concatenate([b.particle_positions() for b in bodies], axis=0)
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
    hits = 0
    for p, g in zip(preds, truths):
        if objects_contact(p, k, l, threshold) == objects_contact(g, k, l, threshold):
            hits += 1
    return hits / len(preds) if preds else 0.0


# -------------------------------------------------------------- serialization

def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC)
        f.write(struct.pack("<I", TRAJ_VERSION))
        n = traj.n_particles
        t = traj.n_frames
        f.write(struct.pack("<II", n, t))
        f.write(struct.pack("<d", traj.dt))
        f.write(np.ascontiguousarray(traj.object_of, dtype="<u4").tobytes())
        f.write(struct.pack("<I", traj.attrs.shape[1]))
        f.write(np.ascontiguousarray(traj.attrs, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(traj.frames, dtype="<f8").tobytes())


class _Cursor:
    def __init__(self, data: bytes, path):
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, size: int, what: str) -> bytes:
        if self.offset + size > len(self.data):
            raise TrajectoryParseError(self.offset, f"{self.path}: truncated {what}")
        chunk = self.data[self.offset : self.offset + size]
        self.offset += size
        return chunk


def load_trajectory(path) -> Trajectory:
    cur = _Cursor(Path(path).read_bytes(), path)
    if cur.take(4, "magic") != TRAJ_MAGIC:
        raise TrajectoryParseError(0, f"{path}: bad magic")
    (version,) = struct.unpack("<I", cur.take(4, "version"))
    if version != TRAJ_VERSION:
        raise TrajectoryParseError(4, f"{path}: unsupported version {version}")
    n, t = struct.unpack("<II", cur.take(8, "counts"))
    (dt,) = struct.unpack("<d", cur.take(8, "dt"))
    object_of = np.frombuffer(cur.take(4 * n, "object table"), dtype="<u4").astype(np.int64)
    (n_attrs,) = struct.unpack("<I", cur.take(4, "attr dims"))
    attrs = np.frombuffer(cur.take(8 * n * n_attrs, "attr payload"), dtype="<f8").reshape(
        n, n_attrs
    )
    frames = np.frombuffer(cur.take(8 * t * n * 3, "frame payload"), dtype="<f8").reshape(
        t, n, 3
    )
    if cur.offset != len(cur.data):
        raise TrajectoryParseError(cur.offset, f"{path}: trailing bytes")
    return Trajectory(
        frames=frames.astype(np.float64),
        object_of=object_of,
        attrs=attrs.astype(np.float64),
        dt=dt,
    )
