"""Object-aware message passing with gravity-axis symmetry.

One layer updates per-particle stacks [x, v] and scalar features by
exchanging messages along an edge list.  Each edge builds a translation
invariant multichannel stack: the pairwise position offset plus the
receiver's and sender's offsets from their objects' pooled features, each
channel once, all fed through gravity-augmented scalarization so outputs
stay equivariant to rotations and reflections about the vertical axis.
Node updates are residual, and nodes without incident edges are left
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad
from .errors import ContractError, ShapeError
from .geometry import Gravity, ominus, scalarize_subequivariant, triangle
from .graph import ObjectFeatures, _edge_inputs, _receiver_mask
from .mlp import MLP, mlp_init

# Gravity gates are small MLPs whose output bias starts at ETA_INIT: starting
# near the geometric feature scale keeps the augmented Gram well conditioned.
ETA_HIDDEN = 16
ETA_INIT = 0.05
# node stacks are [x, v]
NODE_CHANNELS = 2
# the object-aware edge stack's Gram norm counts v_r and v_s twice, as the square draw's stack does
EDGE_MULTIPLICITY = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0])


@dataclass
class SompParams:
    """Message function, update function and their gravity gates.

    ``equivariant_only`` drops the gates (full O(3) symmetry).  Without
    objects, ``own_velocity`` appends the node's velocity channel to the
    update stack, which is the multichannel (GMN-style) layer.
    """

    phi_sigma: MLP
    phi_eta: MLP
    psi_sigma: MLP
    psi_eta: MLP
    iterations: int = 4
    msg_channels: int = 2
    msg_extra: int = 16
    node_channels: int = NODE_CHANNELS
    n_scalar: int = 1
    use_objects: bool = True
    aggregate: str = "sum"
    normalize: bool = True
    equivariant_only: bool = False
    own_velocity: bool = False

    def mlps(self) -> list[MLP]:
        return [self.phi_sigma, self.phi_eta, self.psi_sigma, self.psi_eta]


def make_somp_params(
    rng: np.random.Generator,
    n_scalar: int,
    *,
    hidden: int = 64,
    msg_channels: int = 2,
    msg_extra: int = 16,
    iterations: int = 4,
    use_objects: bool = True,
    equivariant_only: bool = False,
    zero_init_update: bool = True,
) -> SompParams:
    """Allocate SiLU MLPs for the layer's channel arithmetic (sigmas drawn square, then folded)."""
    if n_scalar < 1:
        raise ContractError("need at least one scalar feature channel")
    if iterations < 1:
        raise ContractError(f"iterations must be >= 1, got {iterations}")
    if msg_extra < 0:
        raise ContractError(f"msg_extra must be >= 0, got {msg_extra}")
    pair = 2 * NODE_CHANNELS - 1  # z_i ominus z_j
    offset = NODE_CHANNELS + 1  # a node's ominus from its object's pooled stack
    m_edge = pair + 2 * offset if use_objects else pair
    h_edge = (4 if use_objects else 2) * n_scalar
    aug = 0 if equivariant_only else 1
    phi_sigma = mlp_init(rng, [(m_edge + aug) ** 2 + h_edge, hidden, hidden,
                               (m_edge + aug) * msg_channels + msg_extra])
    phi_eta = mlp_init(rng, [h_edge, ETA_HIDDEN, 1], zero_last=True)
    phi_eta.biases[-1][:] = ETA_INIT
    m_upd = msg_channels + (offset if use_objects else 0)
    s_upd = msg_extra + n_scalar + (n_scalar if use_objects else 0)
    psi_sigma = mlp_init(rng, [(m_upd + aug) ** 2 + s_upd, hidden, hidden,
                               (m_upd + aug) * NODE_CHANNELS + n_scalar], zero_last=zero_init_update)
    psi_eta = mlp_init(rng, [s_upd, ETA_HIDDEN, 1], zero_last=True)
    psi_eta.biases[-1][:] = ETA_INIT
    return fold_v1_sigmas(SompParams(
        phi_sigma=phi_sigma, phi_eta=phi_eta, psi_sigma=psi_sigma, psi_eta=psi_eta,
        iterations=iterations, msg_channels=msg_channels, msg_extra=msg_extra,
        n_scalar=n_scalar, use_objects=use_objects, equivariant_only=equivariant_only,
    ))


def fold_square_sigma(net: MLP, chan: tuple, out_channels: int) -> MLP:
    """``net`` drawn on the square layout (rows for every Gram entry (a, b) of a
    stack whose channel k is distinct channel ``chan[k]``, then the scalars; V's
    columns per drawn channel, then the extras), folded onto the layer's by the
    0/1 products ``rows @ W_0``, ``W_L @ cols^T`` and ``cols @ b_L``."""
    c, m = np.asarray(chan), max(chan) + 1
    tri, n_scalar = m * (m + 1) // 2, net.in_dim - c.size**2
    extra = net.weights[-1].shape[1] - c.size * out_channels
    if min(n_scalar, extra) < 0:
        raise ShapeError(f"a sigma of {net.in_dim} inputs is too narrow for {c.size} channels")
    rows = np.append(triangle(m)[1][c[:, None], c], tri + np.arange(n_scalar))
    weights, biases = list(net.weights), list(net.biases)
    weights[0] = np.eye(tri + n_scalar)[:, rows] @ weights[0]
    if chan != tuple(range(m)):
        cols = np.append(c[:, None] * out_channels + np.arange(out_channels),
                         m * out_channels + np.arange(extra))
        cols = np.eye(m * out_channels + extra)[:, cols]
        weights[-1], biases[-1] = weights[-1] @ cols.T, cols @ biases[-1]
    return MLP(weights, biases, list(net.activations))


def fold_v1_sigmas(params: SompParams) -> SompParams:
    """Fold the constructors' square draw of ``params``' sigmas onto the layer's layout,
    in place (README, ``sgnn.layers``).  Its object-aware edge stack [z_r ⊖ C_r, z_s ⊖ C_s,
    z_r ⊖ z_s, g] holds v_r and v_s twice: drawn channel k is channel ``edge[k]`` of the layer's."""
    aug = 0 if params.equivariant_only else 1
    edge = (1, 2, 3, 4, 5, 6, 0, 2, 5, 7)[:9 + aug] if params.use_objects else range(3 + aug)
    upd = params.msg_channels + 3 * params.use_objects + params.own_velocity + aug
    params.phi_sigma = fold_square_sigma(params.phi_sigma, tuple(edge), params.msg_channels)
    params.psi_sigma = fold_square_sigma(params.psi_sigma, tuple(range(upd)), params.node_channels)
    return params


def somp_forward(
    params: SompParams,
    z,
    h,
    edges: np.ndarray,
    objects: ObjectFeatures | None = None,
    object_of: np.ndarray | None = None,
    *,
    gravity: Gravity,
    edge_features: tuple | None = None,
    tape: ad.Tape | None = None,
):
    """Run ``params.iterations`` rounds of message passing and return the
    updated (stacks, scalars).

    ``edges`` lists directed (receiver, sender) pairs.  With ``objects`` the
    edge stacks include each endpoint's offset from its object's pooled
    feature; otherwise only the pairwise stack is used.  ``edge_features``
    overrides the per-edge inputs with fixed (stack, scalars), which is how
    the object-level stage consumes features pooled from the particle stage;
    its messages are then computed once and reused by every iteration.
    Nodes with no incident edges are returned bit-identically.
    """
    zv = ad.value_of(z)
    n_nodes = zv.shape[0]
    if zv.ndim != 3 or zv.shape[1] != 3 or zv.shape[2] != params.node_channels:
        raise ShapeError(f"node stack must be (N, 3, {params.node_channels}), got {zv.shape}")
    if ad.value_of(h).shape != (n_nodes, params.n_scalar):
        raise ShapeError("scalar features must be (N, n_scalar)")
    if params.use_objects and (objects is None or object_of is None):
        raise ShapeError("object features required when use_objects is set")
    if edges.shape[0] == 0:
        return z, h

    recv = edges[:, 0]
    mask, divisor = _receiver_mask(recv, n_nodes, params.aggregate)
    phi_eta = None if params.equivariant_only else params.phi_eta
    psi_eta = None if params.equivariant_only else params.psi_eta

    # phi_sigma reads the edge stack's Gram triangle, gravity included, then the scalars
    multiplicity = EDGE_MULTIPLICITY if params.use_objects and edge_features is None else None

    def aggregated_messages(z_edge, h_edge):
        msg_geo, msg_sca = scalarize_subequivariant(
            z_edge, h_edge, params.phi_sigma, phi_eta, gravity,
            out_channels=params.msg_channels, extra_channels=params.msg_extra,
            normalize=params.normalize, multiplicity=multiplicity, tape=tape,
        )
        return (ad.segment_sum(msg_geo, recv, n_nodes, divisor),
                ad.segment_sum(msg_sca, recv, n_nodes, divisor))

    if params.use_objects:
        C_of = ad.gather(objects.C, object_of)
        c_of = ad.gather(objects.c, object_of)
    if edge_features is not None:
        agg_geo, agg_sca = aggregated_messages(*edge_features)

    for _ in range(params.iterations):
        # node-level parts, built once and gathered onto both edge ends:
        # [x, z ⊖ C] with the offset from the node's object, and [h, c]
        nodes, hc = z, h
        if params.use_objects:
            offset = ominus(z, C_of)
            nodes = ad.concat([ad.narrow(z, -1, 0, 1), offset], axis=-1)
            hc = ad.concat([h, c_of], axis=-1)
        if edge_features is None:
            agg_geo, agg_sca = aggregated_messages(*_edge_inputs(nodes, hc, edges))

        if params.use_objects:
            upd_stack = ad.concat([agg_geo, offset], axis=-1)
        elif params.own_velocity:
            upd_stack = ad.concat([agg_geo, ad.narrow(z, -1, 1, 1)], axis=-1)
        else:
            upd_stack = agg_geo
        dz, dh = scalarize_subequivariant(
            upd_stack, ad.concat([agg_sca, hc], axis=-1), params.psi_sigma, psi_eta, gravity,
            out_channels=params.node_channels, extra_channels=params.n_scalar,
            normalize=params.normalize, tape=tape,
        )
        z = ad.add(z, ad.mul(dz, mask[:, None, None]))
        h = ad.add(h, ad.mul(dh, mask[:, None]))
    return z, h

