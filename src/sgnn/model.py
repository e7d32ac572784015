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
        if edges is None:
            edges = build_edges(system, self.cutoff)
        return predict_step(self, system, edges, tape=tape)


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


def predict_step(model: SGNNModel, system: ParticleSystem, edges: EdgeSets,
                 tape: ad.Tape | None = None):
    """One-frame position prediction via the three-stage hierarchy, or via
    stage 1 alone over all edges for a model without one.

    Velocity channels (particle and pooled) are divided by the model's
    ``velocity_scale`` on the way in; only the position channel is read out,
    so the scale is a pure input normalization.
    """
    vs = model.velocity_scale
    # the frame's inputs stay off the tape: input-only work runs eagerly
    z = np.stack([system.positions, system.velocities / vs], axis=-1)
    h = system.attrs
    feats = pool_objects(system)
    feats = ObjectFeatures(
        C=np.stack([feats.C[:, :, 0], feats.C[:, :, 1] / vs], axis=-1), c=feats.c
    )
    if model.zero_object_features:
        feats = ObjectFeatures(C=np.zeros_like(feats.C), c=np.zeros_like(feats.c))
    object_of = system.object_of
    n = system.n_particles

    e1 = edges.merged if model.no_hierarchy or model.shared_edges else edges.inter
    z1, h1 = somp_forward(
        model.stage1, z, h, e1, objects=feats, object_of=object_of,
        gravity=model.gravity, tape=tape,
    )
    if model.no_hierarchy:
        return ad.reshape(ad.narrow(z1, -1, 0, 1), (n, 3))

    if edges.obj.shape[0]:
        C2, c2 = somp_forward(
            model.stage2, feats.C, feats.c, edges.obj,
            gravity=model.gravity, edge_features=pooled_object_edge_features(z1, h1, edges),
            tape=tape,
        )
        feats = ObjectFeatures(C=C2, c=c2)

    e3 = edges.merged if model.shared_edges else edges.inner
    z3, _ = somp_forward(
        model.stage3, z, h, e3, objects=feats, object_of=object_of,
        gravity=model.gravity, tape=tape,
    )
    return ad.reshape(ad.narrow(z3, -1, 0, 1), (n, 3))


# ------------------------------------------------------------------ rollout

# RANSAC hypotheses per rigid fit, and the distance (m) within which a
# particle counts as an inlier of one
RANSAC_ITERATIONS = 20
INLIER_THRESHOLD = 0.01


@dataclass
class RigidFit:
    """Result of projecting a predicted cloud onto a rigid motion of the
    reference shape."""

    positions: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    translation_only: bool = False
    inlier_mask: np.ndarray | None = None


def _kabsch(reference: np.ndarray, predicted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares proper rigid motions of a batch of (H, k, 3) point sets.

    Returns rotations (H, 3, 3), translations (H, 3) and a (H,) flag for
    collinear references, whose rotation is underdetermined: those get the
    identity and the centroid shift.  LAPACK runs once per matrix, so every
    fit rounds exactly as it would alone.
    """
    ref_c = reference.mean(axis=1)
    pred_c = predicted.mean(axis=1)
    a = reference - ref_c[:, None]
    b = predicted - pred_c[:, None]
    svals = np.linalg.svd(a, compute_uv=False)
    degenerate = svals[:, 1] <= 1e-9 * np.maximum(svals[:, 0], 1e-12)
    R = np.tile(np.eye(3), (a.shape[0], 1, 1))
    t = pred_c - ref_c
    ok = ~degenerate
    if ok.any():
        u, _, vt = np.linalg.svd(np.swapaxes(a[ok], 1, 2) @ b[ok])
        v = np.swapaxes(vt, 1, 2)
        ut = np.swapaxes(u, 1, 2)
        flip = np.tile(np.eye(3), (v.shape[0], 1, 1))
        flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
        R[ok] = v @ flip @ ut
        t[ok] = pred_c[ok] - (R[ok] @ ref_c[ok][:, :, None])[:, :, 0]
    return R, t, degenerate


def _ransac_inliers(predicted: np.ndarray, reference: np.ndarray, seed: int) -> np.ndarray:
    """Inlier mask of the first best of ``RANSAC_ITERATIONS`` random 4-point
    fits, or every particle when all subsets are collinear or the best keeps
    fewer than 3.  All subsets are fitted and scored as one batch."""
    n = predicted.shape[0]
    if RANSAC_ITERATIONS > 0:
        rng = np.random.default_rng(seed)
        idx = np.stack([
            rng.choice(n, size=min(4, n), replace=False) for _ in range(RANSAC_ITERATIONS)
        ])
        R, t, degenerate = _kabsch(reference[idx], predicted[idx])
        moved = reference @ np.swapaxes(R, 1, 2) + t[:, None]
        masks = np.linalg.norm(moved - predicted, axis=2) < INLIER_THRESHOLD
        if not degenerate.all():
            # argmax takes the first maximum, as a loop keeping only strict gains
            best = masks[np.argmax(np.where(degenerate, -1, masks.sum(axis=1)))]
            if best.sum() >= 3:
                return best
    return np.ones(n, dtype=bool)


def rigid_project(
    predicted: np.ndarray,
    reference: np.ndarray,
    ransac: bool = False,
    seed: int = 0,
) -> RigidFit:
    """Least-squares rigid motion of ``reference`` matching ``predicted``.

    Proper rotations only (the smallest singular direction is flipped when
    the determinant is negative).  Collinear references fall back to a
    translation-only fit, flagged on the result.

    With ``ransac`` the fit is consensus-first: the all-points fit is
    returned with an all-true ``inlier_mask`` when every particle lies
    within ``INLIER_THRESHOLD`` of it, and no subset is drawn.  Otherwise
    it is redone on the inliers of the best of ``RANSAC_ITERATIONS`` random
    4-point subsets drawn from ``seed``, which discards grossly displaced
    particles.  This equals plain RANSAC whenever its best consensus is
    every particle; where the all-points fit keeps every particle but no
    sampled subset does, the all-points fit wins as the larger consensus.

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
    R, t, degenerate = _kabsch(reference[None], predicted[None])
    positions = reference @ R[0].T + t[0]
    inliers = None
    if ransac:
        inliers = np.linalg.norm(positions - predicted, axis=1) < INLIER_THRESHOLD
        if not inliers.all():
            inliers = _ransac_inliers(predicted, reference, seed)
            R, t, degenerate = _kabsch(reference[None, inliers], predicted[None, inliers])
            positions = reference @ R[0].T + t[0]
    return RigidFit(
        positions=positions,
        rotation=R[0],
        translation=t[0],
        translation_only=bool(degenerate[0]),
        inlier_mask=inliers,
    )


def rollout(
    model,
    initial: ParticleSystem,
    steps: int,
    *,
    rigid: bool = False,
    rigid_objects: np.ndarray | None = None,
    dt: float = 1.0,
    seed: int = 0,
) -> Trajectory:
    """Autoregressive prediction for ``steps`` frames from ``initial``.

    Edges are rebuilt every step; next-frame velocities are the one-frame
    position differences.  With ``rigid``, each tagged object's predicted
    cloud is replaced by the rigid motion of its layout in ``initial``
    that ``rigid_project(..., ransac=True)`` fits, before the next step.
    Raises ``RolloutError`` on non-finite states.
    """
    if steps < 1:
        raise ContractError("steps must be >= 1")
    n_obj = initial.n_objects
    if rigid_objects is None:
        rigid_objects = np.ones(n_obj, dtype=bool)
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
                fit = rigid_project(
                    nxt[members], references[k], ransac=True,
                    seed=seed * 100003 + step * 31 + k,
                )
                nxt[members] = fit.positions
        vel = nxt - system.positions
        system = ParticleSystem(
            positions=nxt, velocities=vel, attrs=system.attrs, object_of=system.object_of
        )
        frames[step + 1] = nxt
    return Trajectory(
        frames=frames, object_of=initial.object_of, attrs=initial.attrs, dt=dt
    )
