"""Three-stage hierarchical simulator: cross-object particle messages, an
object-level exchange over pooled interaction features, then within-object
refinement conditioned on the updated object states.  Next positions are the
position channel of the final particle stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ad
from .errors import ContractError, RolloutError
from .geometry import Gravity
from .graph import (
    EdgeSets,
    ObjectFeatures,
    ParticleSystem,
    build_edges,
    pool_objects,
    pooled_object_edge_features,
)
from .layers import SompParams, make_somp_params, somp_forward
from .mlp import MLP
from .scenes import Trajectory


@dataclass
class SGNNModel:
    """Parameter bundle for the three stages plus ablation flags.

    The third stage reads the frame's original states.  Without stages 2 and
    3 the model has no hierarchy: stage 1 alone runs over all edges.  The
    ablation flags zero the pooled object features, or run every stage over
    the shared full edge set.
    """

    stage1: SompParams
    stage2: SompParams | None
    stage3: SompParams | None
    gravity: Gravity = field(default_factory=Gravity)
    cutoff: float = 0.08
    zero_object_features: bool = False
    shared_edges: bool = False
    velocity_scale: float = 1.0  # input normalization for the velocity channel
    variant: str = "sgnn"

    @property
    def no_hierarchy(self) -> bool:
        return self.stage2 is None

    def mlps(self) -> list[MLP]:
        out = list(self.stage1.mlps())
        if not self.no_hierarchy:
            out += self.stage2.mlps() + self.stage3.mlps()
        return out

    def predict(self, system: ParticleSystem, edges: EdgeSets | None = None,
                tape: ad.Tape | None = None):
        """One-frame position prediction via the three-stage hierarchy, or via
        stage 1 alone over all edges for a model without one.

        Velocity channels (particle and pooled) are divided by the model's
        ``velocity_scale`` on the way in; only the position channel is read out,
        so the scale is a pure input normalization.  ``edges`` defaults to the
        cutoff graph of ``system``.
        """
        if edges is None:
            edges = build_edges(system, self.cutoff)
        vs = self.velocity_scale
        # the frame's inputs stay off the tape: input-only work runs eagerly
        z = np.stack([system.positions, system.velocities / vs], axis=-1)
        h = system.attrs
        feats = pool_objects(system)
        feats = ObjectFeatures(
            C=np.stack([feats.C[:, :, 0], feats.C[:, :, 1] / vs], axis=-1), c=feats.c
        )
        if self.zero_object_features:
            feats = ObjectFeatures(C=np.zeros_like(feats.C), c=np.zeros_like(feats.c))
        object_of = system.object_of
        n = system.n_particles

        e1 = edges.merged if self.no_hierarchy or self.shared_edges else edges.inter
        z1, h1 = somp_forward(
            self.stage1, z, h, e1, objects=feats, object_of=object_of,
            gravity=self.gravity, tape=tape,
        )
        if self.no_hierarchy:
            return ad.reshape(ad.narrow(z1, -1, 0, 1), (n, 3))

        if edges.obj.shape[0]:
            C2, c2 = somp_forward(
                self.stage2, feats.C, feats.c, edges.obj,
                gravity=self.gravity, edge_features=pooled_object_edge_features(z1, h1, edges),
                tape=tape,
            )
            feats = ObjectFeatures(C=C2, c=c2)

        e3 = edges.merged if self.shared_edges else edges.inner
        z3, _ = somp_forward(
            self.stage3, z, h, e3, objects=feats, object_of=object_of,
            gravity=self.gravity, tape=tape,
        )
        return ad.reshape(ad.narrow(z3, -1, 0, 1), (n, 3))


def make_sgnn_model(
    rng: np.random.Generator,
    n_scalar: int,
    *,
    gravity: Gravity | None = None,
    cutoff: float = 0.08,
    hidden: int = 64,
    msg_channels: int = 2,
    msg_extra: int = 16,
    iterations: int = 4,
    equivariant_only: bool = False,
    zero_init_update: bool = True,
    no_hierarchy: bool = False,
    zero_object_features: bool = False,
    shared_edges: bool = False,
) -> SGNNModel:
    common = dict(
        hidden=hidden,
        msg_channels=msg_channels,
        msg_extra=msg_extra,
        iterations=iterations,
        equivariant_only=equivariant_only,
        zero_init_update=zero_init_update,
    )
    stage1 = make_somp_params(rng, n_scalar, use_objects=True, **common)
    stage2 = stage3 = None
    if not no_hierarchy:
        stage2 = make_somp_params(rng, n_scalar, use_objects=False, **common)
        stage3 = make_somp_params(rng, n_scalar, use_objects=True, **common)
    return SGNNModel(
        stage1=stage1, stage2=stage2, stage3=stage3,
        gravity=gravity or Gravity(), cutoff=cutoff,
        zero_object_features=zero_object_features,
        shared_edges=shared_edges,
    )


# ------------------------------------------------------------------ rollout

@dataclass
class RigidFit:
    """Result of projecting a predicted cloud onto a rigid motion of the
    reference shape."""

    positions: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    translation_only: bool = False
    # always None; kept because perfbench's rigid-fit observer still reads it
    inlier_mask: np.ndarray | None = None


def rigid_project(predicted: np.ndarray, reference: np.ndarray) -> RigidFit:
    """Least-squares rigid motion of ``reference`` matching ``predicted``:
    one Kabsch fit over all points, DPI-Net's shape matching.

    Proper rotations only (the smallest singular direction is flipped when
    the determinant is negative).  Collinear references, whose rotation is
    underdetermined, fall back to the identity and the centroid shift,
    flagged on the result.

    Raises ``ContractError`` on mismatched shapes, fewer than 3 points, or
    non-finite ``predicted`` or ``reference``.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if predicted.shape != reference.shape or predicted.shape[0] < 3:
        raise ContractError("need matching point sets with at least 3 points")
    for name, points in (("predicted", predicted), ("reference", reference)):
        if not np.isfinite(points).all():
            raise ContractError(f"rigid_project: {name} holds non-finite values")
    ref_c = reference.mean(axis=0)
    pred_c = predicted.mean(axis=0)
    a = reference - ref_c
    svals = np.linalg.svd(a, compute_uv=False)
    degenerate = bool(svals[1] <= 1e-9 * max(svals[0], 1e-12))
    R = np.eye(3)
    t = pred_c - ref_c
    if not degenerate:
        u, _, vt = np.linalg.svd(a.T @ (predicted - pred_c))
        flip = np.diag([1.0, 1.0, np.sign(np.linalg.det(vt.T @ u.T))])
        R = vt.T @ flip @ u.T
        t = pred_c - R @ ref_c
    return RigidFit(positions=reference @ R.T + t, rotation=R, translation=t,
                    translation_only=degenerate)


def rollout(
    model,
    initial: ParticleSystem,
    steps: int,
    *,
    rigid: bool = False,
    rigid_objects: np.ndarray | None = None,
    dt: float = 1.0,
) -> Trajectory:
    """Autoregressive prediction for ``steps`` frames from ``initial``.

    Edges are rebuilt every step; next-frame velocities are the one-frame
    position differences.  With ``rigid``, each tagged object's predicted
    cloud is replaced by the rigid motion of its layout in ``initial``
    that ``rigid_project`` fits, before the next step; ``rigid_objects``
    (one flag per object, default all) says which objects are tagged.
    Raises ``RolloutError`` on non-finite states.
    """
    if steps < 1:
        raise ContractError("steps must be >= 1")
    n_obj = initial.n_objects
    if rigid_objects is None:
        rigid_objects = np.ones(n_obj, dtype=bool)
    elif np.shape(rigid_objects) != (n_obj,):
        raise ContractError(f"rigid_objects must have shape ({n_obj},), "
                            f"got {np.shape(rigid_objects)}")
    references = [
        initial.positions[initial.object_of == k] for k in range(n_obj)
    ] if rigid else None

    frames = np.zeros((steps + 1, initial.n_particles, 3))
    frames[0] = initial.positions
    system = initial
    for step in range(steps):
        edges = build_edges(system, model.cutoff)
        nxt = np.array(ad.value_of(model.predict(system, edges)))
        if not np.isfinite(nxt).all():
            raise RolloutError(step)
        if rigid:
            for k in range(n_obj):
                if not rigid_objects[k]:
                    continue
                members = system.object_of == k
                nxt[members] = rigid_project(nxt[members], references[k]).positions
        vel = nxt - system.positions
        system = ParticleSystem(
            positions=nxt, velocities=vel, attrs=system.attrs, object_of=system.object_of
        )
        frames[step + 1] = nxt
    return Trajectory(
        frames=frames, object_of=initial.object_of, attrs=initial.attrs, dt=dt
    )
