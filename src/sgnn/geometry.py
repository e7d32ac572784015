"""Geometric primitives: channel stacking, scalarization, axis-preserving
orthogonal transforms, and the Gram-equivalence witness.

A geometric tensor is a stack of m column vectors in R^3, stored as an array
of shape (3, m), or batched as (B, 3, m).  By convention channel 0 is the
position-like channel; the remaining channels transform like velocities
(rotate but do not translate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import ad
from .errors import ContractError, GramMismatchError, ShapeError
from .mlp import MLP, mlp_forward

GRAM_NORM_EPS = 1e-12


@dataclass(frozen=True)
class Gravity:
    """Unit direction plus a separate magnitude (m/s^2 scale for scenes)."""

    direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -1.0]))
    magnitude: float = 9.8

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64)
        if d.shape != (3,):
            raise ShapeError("gravity direction must be a 3-vector")
        if not np.isfinite(d).all():
            raise ContractError("gravity direction must be finite")
        if not np.isfinite(self.magnitude):
            raise ContractError("gravity magnitude must be finite")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise ContractError("gravity direction must be a unit vector")
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class SubgroupTransform:
    """Orthogonal map O fixing the gravity direction, plus a translation."""

    O: np.ndarray
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def validate(self, gravity: Gravity, tol: float = 1e-12) -> None:
        if not (np.isfinite(self.O).all() and np.isfinite(self.t).all()):
            raise ContractError("transform holds non-finite values")
        if np.max(np.abs(self.O.T @ self.O - np.eye(3))) > tol:
            raise ContractError("transform is not orthogonal")
        if np.max(np.abs(self.O @ gravity.direction - gravity.direction)) > tol:
            raise ContractError("transform does not fix the gravity direction")


def _channels(z) -> int:
    v = ad.value_of(z)
    if v.ndim < 2 or v.shape[-2] != 3:
        raise ShapeError(f"geometric tensor must have shape (..., 3, m), got {v.shape}")
    return v.shape[-1]


def ominus(zi, zj):
    """Translation-cancelling stack: [x_i - x_j, v-channels of i, v-channels of j].

    Channel 0 of each operand is position-like; the rest are carried over
    unchanged.  Works on (3, m) tensors or (B, 3, m) batches of one shape.
    One tape record, whose adjoints equal those of the narrow, sub and concat
    chain, except that a -0.0 partial keeps its sign where the chain's zero
    padding turns it into +0.0.
    """
    mi, mj = _channels(zi), _channels(zj)
    if mi == 0 or mj == 0:
        raise ShapeError("ominus operands need at least the position channel")
    ziv, zjv = ad.value_of(zi), ad.value_of(zj)
    out = np.concatenate([ziv[..., :1] - zjv[..., :1], ziv[..., 1:], zjv[..., 1:]], axis=-1)
    return ad.record(out, (zi, zj), lambda g: (
        g[..., :mi], np.concatenate([-g[..., :1], g[..., mi:]], axis=-1),
    ))


@lru_cache(maxsize=None)
def triangle(m: int) -> tuple:
    """An (m, m) matrix's upper triangle in ``np.triu_indices`` order: its
    places in the flat square, the (m, m) table of each (a, b)'s place in it,
    and its entries' counts in the square (2 off the diagonal), then 3 - that."""
    rows, cols = np.triu_indices(m)
    index = np.empty((m, m), dtype=np.int64)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return rows * m + cols, index, 2.0 - (rows == cols), 1.0 + (rows == cols)


def normalized_gram(z, normalize: bool = True, multiplicity=None, h=None):
    """σ's input ``[T | h]``: the upper triangle T (see ``triangle``) of the
    Gram matrix G of the stack over |G|, with channel a repeated c_a =
    ``multiplicity[a]`` times (once by default): |G|^2 = sum_{a<=b} w_ab
    T_ab^2, w_ab = c_a c_b, twice if a < b; then the scalars ``h``, whose
    leading shape is the stack's batch shape.  Without ``h`` it is T alone.

    Scaling is skipped (divide by 1) whenever the norm falls below 1e-12 so
    all-zero stacks stay finite.  Accepts (3, m) or (B, 3, m).  One tape
    record, which keeps the packed output once and reads T from it: its
    backward gives h the adjoint's last columns and z the analytic
    ``z (U + U^T) / |G|``, where U is the upper-triangle scatter of
    ``g - <g, T> (w * T)`` (of ``g`` where scaling is skipped), g the
    adjoint's first m(m+1)/2 columns.
    """
    zv = ad.value_of(z)
    upper, index, off2, twice = triangle(zv.shape[-1])
    hv = None if h is None else ad.value_of(h)
    if hv is not None and (hv.ndim != zv.ndim - 1 or hv.shape[:-1] != zv.shape[:-2]):
        raise ShapeError(f"scalars of shape {hv.shape} do not match the stack's batch "
                         f"shape {zv.shape[:-2]}")
    # the contiguous transpose takes numpy's fast matmul path; the strided
    # view computes the same values about twice as slowly
    gram = np.matmul(np.ascontiguousarray(np.swapaxes(zv, -1, -2)), zv)
    out = np.take(gram.reshape(zv.shape[:-2] + (-1,)), upper, axis=-1)
    if normalize:
        w = off2 if multiplicity is None else off2 * np.outer(multiplicity, multiplicity).take(upper)
        sq = (out * out) @ w[:, None]
        mask = sq >= GRAM_NORM_EPS**2
        denom = np.where(mask, np.sqrt(sq), 1.0)
        out = np.divide(out, denom, out=out)
    # T is scaled in its own buffer and copied once: on strided column views
    # of the packed array the take, product and division run 1.3-6x slower
    if hv is not None:
        out = np.concatenate([out, hv], axis=-1)
    k = upper.size
    if not normalize:
        return ad.record(out, (z, h), lambda g: (zv @ (g[..., :k] * twice)[..., index],
                                                 g[..., k:]))

    def bwd(g):
        # U + U^T holds alpha_ab at (a, b) and (b, a); no norm term if unscaled
        gt, t = g[..., :k], out[..., :k]
        alpha = np.multiply(w, t)
        alpha *= np.einsum("...k,...k->...", gt, t)[..., None] * mask
        alpha = np.subtract(gt, alpha, out=alpha)
        alpha *= twice
        return zv @ alpha[..., index] / denom[..., None], g[..., k:]

    return ad.record(out, (z, h), bwd)


def scalarize_subequivariant(
    z,
    h,
    sigma: MLP,
    eta: MLP | None = None,
    gravity: Gravity | None = None,
    *,
    out_channels: int = 1,
    extra_channels: int = 0,
    normalize: bool = True,
    multiplicity: np.ndarray | None = None,
    tape: ad.Tape | None = None,
):
    """Batched scalarization Z V with V = sigma(gram(Z), h), returning the
    (geometric, extras) pair for ``z`` of shape (B, 3, m) and ``h`` (B, n).
    The MLP sigma reads [triangle | h] (``normalized_gram``'s one record),
    m(m+1)/2 + n inputs, and writes ``out_channels`` columns of V per
    channel, then the extras.  ``multiplicity`` weights z's channels in the
    Gram's norm (gravity's is 1).

    With ``eta`` the gravity direction is appended as channel m with scale
    eta(h), so the output can leave the span of Z along the vertical axis
    while staying equivariant to rotations/reflections about it.  With
    ``eta=None`` no column is added and the map is fully O(3)-equivariant.
    The Gram features are invariant, so the extras (width
    ``extra_channels``, possibly 0) are too.
    """
    zv = ad.value_of(z)
    if zv.ndim != 3 or zv.shape[1] != 3:
        raise ShapeError(f"geometric batch must have shape (B, 3, m), got {zv.shape}")
    B, _, m = zv.shape
    if eta is not None:
        if gravity is None:
            raise ContractError("a gravity gate needs the gravity direction")
        scale = mlp_forward(eta, h, tape=tape)
        if ad.value_of(scale).shape[-1] != 1:
            raise ShapeError("eta must map the scalar features to one real")
        g_col = ad.mul(ad.reshape(scale, (B, 1, 1)), gravity.direction.reshape(3, 1))
        z = ad.concat([z, g_col], axis=-1) if m else g_col
        m += 1
        multiplicity = None if multiplicity is None else np.append(multiplicity, 1.0)
    out = mlp_forward(sigma, normalized_gram(z, normalize, multiplicity, h), tape=tape)
    width = ad.value_of(out).shape[-1]
    if width != m * out_channels + extra_channels:
        raise ShapeError(f"sigma output width {width} != channels {m}*{out_channels} "
                         f"+ extra {extra_channels}")
    v = ad.reshape(ad.narrow(out, -1, 0, m * out_channels), (B, m, out_channels))
    return ad.matmul(z, v), ad.narrow(out, -1, m * out_channels, extra_channels)


# ----------------------------------------------------------------- transforms

def _horizontal_frame(g_dir: np.ndarray) -> np.ndarray:
    """Two orthonormal vectors spanning the plane perpendicular to g_dir."""
    seed = np.array([1.0, 0.0, 0.0])
    if abs(seed @ g_dir) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    u = seed - (seed @ g_dir) * g_dir
    u /= np.linalg.norm(u)
    w = np.cross(g_dir, u)
    return np.stack([u, w], axis=1)


def sample_subgroup_transform(
    theta: float,
    reflect: bool = False,
    t: np.ndarray | None = None,
    gravity: Gravity | None = None,
) -> SubgroupTransform:
    """Rotation by ``theta`` about the gravity axis, optionally composed with
    a reflection across a vertical plane containing the axis."""
    g = gravity or Gravity()
    gd = g.direction
    frame = _horizontal_frame(gd)
    basis = np.column_stack([frame[:, 0], frame[:, 1], gd])
    c, s = np.cos(theta), np.sin(theta)
    plane = np.array([[c, -s], [s, c]])
    if reflect:
        plane = plane @ np.array([[1.0, 0.0], [0.0, -1.0]])
    block = np.eye(3)
    block[:2, :2] = plane
    O = basis @ block @ basis.T
    trans = np.zeros(3) if t is None else np.asarray(t, dtype=np.float64)
    return SubgroupTransform(O=O, t=trans)


def random_subgroup_transform(
    rng: np.random.Generator,
    gravity: Gravity | None = None,
    translation_scale: float = 0.0,
) -> SubgroupTransform:
    theta = rng.uniform(0.0, 2.0 * np.pi)
    reflect = bool(rng.integers(0, 2))
    t = rng.normal(0.0, translation_scale, size=3) if translation_scale > 0 else np.zeros(3)
    return sample_subgroup_transform(theta, reflect, t, gravity)


def random_orthogonal(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish O(3) sample (QR with a random reflection)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if rng.integers(0, 2):
        q[:, 0] = -q[:, 0]
    return q


def horizontal_axis_rotation(rng: np.random.Generator, gravity: Gravity | None = None) -> np.ndarray:
    """Rotation about a horizontal axis: orthogonal, but moves the gravity
    direction (a witness that full orthogonal symmetry does not hold)."""
    g = gravity or Gravity()
    frame = _horizontal_frame(g.direction)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    axis = np.cos(phi) * frame[:, 0] + np.sin(phi) * frame[:, 1]
    angle = rng.uniform(0.25 * np.pi, 0.75 * np.pi)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def lemma5_witness(z1: np.ndarray, z2: np.ndarray, gravity: Gravity) -> SubgroupTransform:
    """Recover an axis-preserving orthogonal map sending z2 to z1.

    Valid whenever the gravity-augmented Gram matrices of the two stacks
    agree: the vertical components must already match, and the horizontal
    parts are aligned with a 2x2 orthogonal Procrustes solve.  The assembled
    map is g g^T plus the horizontal alignment embedded in the horizontal
    plane.  Rank-deficient horizontal parts are fine; the SVD alignment is
    then one of the many consistent choices.  The Grams must agree to 1e-8.
    """
    gd = gravity.direction
    a1 = np.concatenate([np.atleast_2d(z1), gd.reshape(3, 1)], axis=1)
    a2 = np.concatenate([np.atleast_2d(z2), gd.reshape(3, 1)], axis=1)
    if a1.shape != a2.shape:
        raise ShapeError("stacks must have the same channel count")
    if np.max(np.abs(a1.T @ a1 - a2.T @ a2)) > 1e-8:
        raise GramMismatchError("augmented Gram matrices differ beyond tolerance")
    frame = _horizontal_frame(gd)
    beta1 = frame.T @ z1
    beta2 = frame.T @ z2
    u, _, vt = np.linalg.svd(beta1 @ beta2.T)
    o2 = u @ vt
    O = np.outer(gd, gd) + frame @ o2 @ frame.T
    return SubgroupTransform(O=O)


# ----------------------------------------------------- equivariance checking

def check_equivariance(
    fn: Callable,
    inputs: tuple[list[np.ndarray], list[np.ndarray]],
    group: str,
    trials: int = 100,
    seed: int = 0,
    translate: bool = False,
) -> float:
    """Max deviation of ``fn`` from commuting with sampled transforms.

    ``fn`` maps (geo_tensors, scalars) to (geo_outputs, scalar_outputs).
    Geometric arrays rotate as column stacks; when ``translate`` is set, a
    standard normal translation is added to channel 0 of every input and
    output tensor.  Scalars are checked for invariance.  ``group`` is ``o3``
    or ``og3`` (about the default gravity axis).
    """
    if group not in ("o3", "og3"):
        raise ContractError(f"unknown group {group!r}")
    rng = np.random.default_rng(seed)
    geo_in, sca_in = inputs

    def act(O, t, z):
        zt = np.einsum("ab,...bm->...am", O, z)
        if translate:
            zt[..., :, 0] += t
        return zt

    worst = 0.0
    base_geo, base_sca = fn(geo_in, sca_in)
    for _ in range(trials):
        O = random_orthogonal(rng) if group == "o3" else random_subgroup_transform(rng).O
        t = rng.normal(0.0, 1.0, size=3) if translate else None
        got_geo, got_sca = fn([act(O, t, z) for z in geo_in], sca_in)
        for y0, y1 in zip(base_geo, got_geo):
            want = act(O, t, y0)
            worst = max(worst, float(np.max(np.abs(y1 - want))) if want.size else 0.0)
        for s0, s1 in zip(base_sca, got_sca):
            if np.asarray(s0).size:
                worst = max(worst, float(np.max(np.abs(np.asarray(s1) - np.asarray(s0)))))
    return worst
