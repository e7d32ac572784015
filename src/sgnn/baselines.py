"""Comparison layers: raw-coordinate message passing (GNS-style), distance
scalarization (EGNN-style) and multichannel scalarization (GMN-style), each
with an optional gravity term that trades full orthogonal equivariance for
equivariance about the vertical axis only.

All variants share the receiver mask and aggregation of the object-aware
layer so the expressivity-ordering constructions compare like with like; the
multichannel layer is that layer itself, run without objects and with the
node's own velocity channel in the update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ad
from .errors import ContractError, ShapeError
from .geometry import Gravity
from .graph import ParticleSystem, _receiver_mask, build_edges
from .layers import ETA_HIDDEN, ETA_INIT, SompParams, fold_v1_sigmas, somp_forward
from .mlp import MLP, mlp_forward, mlp_init, mlp_layers


# ----------------------------------------------------------------- GNS-style

@dataclass
class GNSParams:
    phi: MLP  # raw edge features -> message
    psi: MLP  # aggregated message + node features -> residual
    iterations: int = 10
    msg_dim: int = 64
    n_scalar: int = 1
    aggregate: str = "sum"

    def mlps(self) -> list[MLP]:
        return [self.phi, self.psi]


def make_gns_params(
    rng: np.random.Generator,
    n_scalar: int,
    *,
    hidden: int = 64,
    msg_dim: int = 64,
    iterations: int = 10,
    activation: str = "relu",
    zero_init_update: bool = True,
) -> GNSParams:
    if iterations < 1:
        raise ContractError(f"iterations must be >= 1, got {iterations}")
    phi = mlp_init(rng, [9 + 2 * n_scalar, hidden, hidden, msg_dim], activation=activation)
    psi = mlp_init(
        rng,
        [msg_dim + 3 + n_scalar, hidden, hidden, 6 + n_scalar],
        activation=activation,
        zero_last=zero_init_update,
    )
    return GNSParams(phi=phi, psi=psi, iterations=iterations, msg_dim=msg_dim, n_scalar=n_scalar)


def gns_forward(params: GNSParams, x, v, h, edges: np.ndarray, tape: ad.Tape | None = None):
    """Raw-coordinate message passing: relative positions and velocities are
    fed to the MLP directly, so only translation symmetry is preserved.  φ's
    linear last layer commutes with the sum, so it runs once per node after the
    aggregation, its bias weighted by in-degree / divisor."""
    n = ad.value_of(x).shape[0]
    if edges.shape[0] == 0:
        return x, v, h
    recv, send = edges[:, 0], edges[:, 1]
    mask, divisor = _receiver_mask(recv, n, params.aggregate)
    bias_w = ad.segment_sum(np.ones((len(recv), 1)), recv, n, divisor)
    mask = mask[:, None]
    for _ in range(params.iterations):
        rel = ad.sub(ad.gather(x, recv), ad.gather(x, send))
        feats = ad.concat(
            [rel, ad.gather(v, recv), ad.gather(v, send), ad.gather(h, recv), ad.gather(h, send)],
            axis=-1,
        )
        *hidden, (w, b, _) = mlp_layers(params.phi, tape or getattr(feats, "tape", None))
        hid = ad.segment_sum(ad.mlp(feats, hidden), recv, n, divisor)
        agg = ad.add(ad.matmul(hid, w), ad.mul(bias_w, b))
        upd = mlp_forward(params.psi, ad.concat([agg, v, h], axis=-1), tape=tape)
        dx = ad.narrow(upd, -1, 0, 3)
        dv = ad.narrow(upd, -1, 3, 3)
        dh = ad.narrow(upd, -1, 6, params.n_scalar)
        x = ad.add(x, ad.mul(dx, mask))
        v = ad.add(v, ad.mul(dv, mask))
        h = ad.add(h, ad.mul(dh, mask))
    return x, v, h


# ---------------------------------------------------------------- EGNN-style

@dataclass
class EGNNParams:
    phi_m: MLP  # squared distance + endpoint scalars -> message
    phi_x: MLP  # message -> coordinate weight
    phi_v: MLP  # node scalars -> velocity gate
    phi_h: MLP  # node scalars + aggregated message -> scalar residual
    phi_g: MLP  # node scalars -> gravity weight
    iterations: int = 10
    msg_dim: int = 64
    n_scalar: int = 1
    subequivariant: bool = False
    aggregate: str = "sum"

    def mlps(self) -> list[MLP]:
        return [self.phi_m, self.phi_x, self.phi_v, self.phi_h, self.phi_g]


def make_egnn_params(
    rng: np.random.Generator,
    n_scalar: int,
    *,
    hidden: int = 64,
    msg_dim: int = 64,
    iterations: int = 10,
    activation: str = "silu",
    subequivariant: bool = False,
    zero_init_update: bool = True,
) -> EGNNParams:
    if iterations < 1:
        raise ContractError(f"iterations must be >= 1, got {iterations}")
    phi_m = mlp_init(rng, [1 + 2 * n_scalar, hidden, hidden, msg_dim], activation=activation)
    phi_x = mlp_init(rng, [msg_dim, hidden, 1], activation=activation, zero_last=zero_init_update)
    phi_v = mlp_init(rng, [n_scalar, hidden, 1], activation=activation, zero_last=zero_init_update)
    phi_h = mlp_init(
        rng, [n_scalar + msg_dim, hidden, n_scalar], activation=activation,
        zero_last=zero_init_update,
    )
    phi_g = mlp_init(rng, [n_scalar, hidden, 1], activation=activation, zero_last=zero_init_update)
    return EGNNParams(
        phi_m=phi_m, phi_x=phi_x, phi_v=phi_v, phi_h=phi_h, phi_g=phi_g,
        iterations=iterations, msg_dim=msg_dim, n_scalar=n_scalar,
        subequivariant=subequivariant,
    )


def egnn_forward(
    params: EGNNParams,
    x,
    v,
    h,
    edges: np.ndarray,
    gravity: Gravity | None = None,
    tape: ad.Tape | None = None,
    velocity_scale: float = 1.0,
):
    """Distance-scalarized updates; with ``subequivariant`` set an extra
    learned multiple of the gravity direction enters the velocity update.

    ``v`` is expected in units of ``velocity_scale`` (an input normalization);
    the position update multiplies the scale back in.
    """
    n = ad.value_of(x).shape[0]
    if edges.shape[0] == 0:
        return x, v, h
    if params.subequivariant and gravity is None:
        raise ShapeError("gravity required for the subequivariant variant")
    recv, send = edges[:, 0], edges[:, 1]
    mask, divisor = _receiver_mask(recv, n, params.aggregate)
    mask = mask[:, None]
    for _ in range(params.iterations):
        rel = ad.sub(ad.gather(x, recv), ad.gather(x, send))
        d2 = ad.sum_(ad.mul(rel, rel), axis=-1, keepdims=True)
        msg = mlp_forward(
            params.phi_m,
            ad.concat([d2, ad.gather(h, recv), ad.gather(h, send)], axis=-1),
            tape=tape,
        )
        coord_w = mlp_forward(params.phi_x, msg, tape=tape)
        agg_geo = ad.segment_sum(ad.mul(rel, coord_w), recv, n, divisor)
        agg_msg = ad.segment_sum(msg, recv, n, divisor)
        v_new = ad.add(ad.mul(mlp_forward(params.phi_v, h, tape=tape), v), agg_geo)
        if params.subequivariant:
            g_term = ad.mul(mlp_forward(params.phi_g, h, tape=tape), gravity.direction[None, :])
            v_new = ad.add(v_new, g_term)
        v = ad.add(v, ad.mul(ad.sub(v_new, v), mask))
        x = ad.add(x, ad.mul(ad.mul(v_new, velocity_scale), mask))
        h = ad.add(
            h,
            ad.mul(mlp_forward(params.phi_h, ad.concat([h, agg_msg], axis=-1), tape=tape), mask),
        )
    return x, v, h


# ----------------------------------------------------------------- GMN-style

def make_gmn_params(
    rng: np.random.Generator,
    n_scalar: int,
    *,
    hidden: int = 64,
    msg_channels: int = 2,
    msg_extra: int = 16,
    iterations: int = 10,
    activation: str = "silu",
    subequivariant: bool = False,
    zero_init_update: bool = True,
    normalize: bool = True,
) -> SompParams:
    """Multichannel layer on the pairwise stack [x_i - x_j, v_i, v_j]; the gravity
    gates are live only with ``subequivariant``.  Sigmas are drawn square, then folded."""
    if iterations < 1:
        raise ContractError(f"iterations must be >= 1, got {iterations}")
    if msg_extra < 0:
        raise ContractError(f"msg_extra must be >= 0, got {msg_extra}")
    aug = 1 if subequivariant else 0
    sigma_msg = mlp_init(rng, [(3 + aug) ** 2 + 2 * n_scalar, hidden, hidden,
                               (3 + aug) * msg_channels + msg_extra], activation=activation)
    m_upd = msg_channels + 1
    sigma_upd = mlp_init(rng, [(m_upd + aug) ** 2 + msg_extra + n_scalar, hidden, hidden,
                               (m_upd + aug) * 2 + n_scalar], activation=activation,
                         zero_last=zero_init_update)
    eta_msg = mlp_init(rng, [2 * n_scalar, ETA_HIDDEN, 1], activation=activation, zero_last=True)
    eta_upd = mlp_init(rng, [msg_extra + n_scalar, ETA_HIDDEN, 1], activation=activation,
                       zero_last=True)
    eta_msg.biases[-1][:] = ETA_INIT
    eta_upd.biases[-1][:] = ETA_INIT
    return fold_v1_sigmas(SompParams(
        phi_sigma=sigma_msg, phi_eta=eta_msg, psi_sigma=sigma_upd, psi_eta=eta_upd,
        iterations=iterations, msg_channels=msg_channels, msg_extra=msg_extra,
        n_scalar=n_scalar, use_objects=False, own_velocity=True, normalize=normalize,
        equivariant_only=not subequivariant,
    ))


# ----------------------------------------------------------- model wrappers

BASELINE_VARIANTS = ("gns", "egnn", "egnn_s", "gmn", "gmn_s")


@dataclass
class BaselineModel:
    """A baseline layer stack plus scene-facing plumbing."""

    variant: str
    params: GNSParams | EGNNParams | SompParams
    gravity: Gravity = field(default_factory=Gravity)
    cutoff: float = 0.08
    velocity_scale: float = 1.0

    def mlps(self) -> list[MLP]:
        return self.params.mlps()

    def predict(self, system: ParticleSystem, edges=None, tape: ad.Tape | None = None):
        """Next positions for one frame (uses the merged cutoff graph)."""
        if edges is None:
            edges = build_edges(system, self.cutoff)
        merged = edges.merged
        h = system.attrs
        vel = system.velocities / self.velocity_scale
        if self.variant == "gns":
            x, v, hh = gns_forward(
                self.params, system.positions, vel, h, merged, tape=tape
            )
            return x
        if self.variant in ("egnn", "egnn_s"):
            x, v, hh = egnn_forward(
                self.params, system.positions, vel, h, merged,
                gravity=self.gravity, tape=tape, velocity_scale=self.velocity_scale,
            )
            return x
        if self.variant in ("gmn", "gmn_s"):
            z = np.stack([system.positions, vel], axis=-1)
            z2, _ = somp_forward(self.params, z, h, merged, gravity=self.gravity, tape=tape)
            return ad.reshape(ad.narrow(z2, -1, 0, 1), (system.n_particles, 3))
        raise ShapeError(f"unknown baseline variant {self.variant!r}")


def make_baseline(
    variant: str,
    rng: np.random.Generator,
    n_scalar: int,
    *,
    gravity: Gravity | None = None,
    cutoff: float = 0.08,
    hidden: int = 64,
    iterations: int = 10,
    **kwargs,
) -> BaselineModel:
    if variant not in BASELINE_VARIANTS:
        raise ShapeError(f"unknown baseline variant {variant!r}")
    g = gravity or Gravity()
    if variant == "gns":
        params = make_gns_params(rng, n_scalar, hidden=hidden, iterations=iterations, **kwargs)
    elif variant in ("egnn", "egnn_s"):
        params = make_egnn_params(
            rng, n_scalar, hidden=hidden, iterations=iterations,
            subequivariant=(variant == "egnn_s"), **kwargs,
        )
    else:
        params = make_gmn_params(
            rng, n_scalar, hidden=hidden, iterations=iterations,
            subequivariant=(variant == "gmn_s"), **kwargs,
        )
    return BaselineModel(variant=variant, params=params, gravity=g, cutoff=cutoff)
