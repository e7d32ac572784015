"""Shared test utilities: finite-difference and transcription oracles."""

from __future__ import annotations

import numpy as np

from sgnn import ad
from sgnn.errors import ContractError
from sgnn.geometry import Gravity
from sgnn.graph import EdgeSets, ParticleSystem
from sgnn.mlp import MLP, mlp_forward, mlp_grads

GRAVITY = Gravity()


def fd_grad(loss_fn, arr: np.ndarray, coords, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of ``loss_fn()`` w.r.t. entries of ``arr``."""
    out = np.zeros(len(coords))
    flat = arr.reshape(-1)
    for k, idx in enumerate(coords):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn()
        flat[idx] = orig - h
        down = loss_fn()
        flat[idx] = orig
        out[k] = (up - down) / (2.0 * h)
    return out


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-5) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def loop_build_edges(system: ParticleSystem, r: float) -> EdgeSets:
    """Per-particle cell-list loop: the reference for ``graph.build_edges``.

    Buckets particles by clipped cell key in a dict, scans the 27 adjacent
    buckets of each particle, keeps pairs with ``d @ d < r * r``, then
    lexsorts and partitions by object.
    """
    if r <= 0:
        raise ContractError("cutoff radius must be positive")
    pos = system.positions
    n = pos.shape[0]
    cells: dict[tuple[int, int, int], list[int]] = {}
    keys = np.floor(np.clip(pos / r, -2.0**31, 2.0**31)).astype(np.int64)
    for i in range(n):
        cells.setdefault(tuple(keys[i]), []).append(i)

    senders: list[int] = []
    receivers: list[int] = []
    r2 = r * r
    for i in range(n):
        kx, ky, kz = keys[i]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    bucket = cells.get((kx + dx, ky + dy, kz + dz))
                    if not bucket:
                        continue
                    for j in bucket:
                        if j == i:
                            continue
                        d = pos[i] - pos[j]
                        if d @ d < r2:
                            senders.append(i)
                            receivers.append(j)
    empty = np.zeros((0, 2), dtype=np.int64)
    if not senders:
        return EdgeSets(inter=empty, inner=empty, obj=empty)

    edges = np.stack([np.asarray(senders), np.asarray(receivers)], axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    same = system.object_of[edges[:, 0]] == system.object_of[edges[:, 1]]
    inner = edges[same]
    inter = edges[~same]

    if inter.shape[0]:
        pairs = np.stack(
            [system.object_of[inter[:, 0]], system.object_of[inter[:, 1]]], axis=1
        )
        obj, inter_to_obj = np.unique(pairs, axis=0, return_inverse=True)
    else:
        obj = empty
        inter_to_obj = np.zeros((0,), dtype=np.int64)
    return EdgeSets(inter=inter, inner=inner, obj=obj, inter_to_obj=inter_to_obj.reshape(-1))


def naive_ominus(zi: np.ndarray, zj: np.ndarray) -> np.ndarray:
    return np.concatenate([zi[:, :1] - zj[:, :1], zi[:, 1:], zj[:, 1:]], axis=1)


def naive_scalarize(sigma, eta, stack, scalars, out_channels, extra,
                    normalize=True, gravity=GRAVITY):
    """Single-instance gravity-augmented scalarization, written straight."""
    scale = float(np.asarray(mlp_forward(eta, scalars)).reshape(-1)[0])
    aug = np.concatenate([stack, scale * gravity.direction.reshape(3, 1)], axis=1)
    gram = aug.T @ aug
    if normalize:
        nrm = np.linalg.norm(gram)
        if nrm >= 1e-12:
            gram = gram / nrm
    out = mlp_forward(sigma, np.concatenate([gram.reshape(-1), scalars]))
    k = aug.shape[1]
    v = out[: k * out_channels].reshape(k, out_channels)
    return aug @ v, out[k * out_channels:]


def naive_somp(params, z, h, edges, feats=None, object_of=None,
               edge_features=None, gravity=GRAVITY):
    """Per-edge loop transcription of the object-aware layer, all iterations."""
    z = z.copy()
    h = h.copy()
    n = z.shape[0]
    for _ in range(params.iterations):
        msgs_geo: dict[int, list] = {}
        msgs_sca: dict[int, list] = {}
        for idx, (i, j) in enumerate(edges):
            if edge_features is not None:
                stack = edge_features[0][idx]
                scalars = edge_features[1][idx]
            elif params.use_objects:
                oi, oj = object_of[i], object_of[j]
                stack = np.concatenate(
                    [
                        naive_ominus(z[i], feats.C[oi]),
                        naive_ominus(z[j], feats.C[oj]),
                        naive_ominus(z[i], z[j]),
                    ],
                    axis=1,
                )
                scalars = np.concatenate([h[i], feats.c[oi], h[j], feats.c[oj]])
            else:
                stack = naive_ominus(z[i], z[j])
                scalars = np.concatenate([h[i], h[j]])
            m_geo, m_sca = naive_scalarize(
                params.phi_sigma, params.phi_eta, stack, scalars,
                params.msg_channels, params.msg_extra,
                normalize=params.normalize, gravity=gravity,
            )
            msgs_geo.setdefault(i, []).append(m_geo)
            msgs_sca.setdefault(i, []).append(m_sca)
        z_new, h_new = z.copy(), h.copy()
        for i in range(n):
            if i not in msgs_geo:
                continue
            agg_geo = np.sum(msgs_geo[i], axis=0)
            agg_sca = np.sum(msgs_sca[i], axis=0)
            if params.aggregate == "mean":
                agg_geo = agg_geo / len(msgs_geo[i])
                agg_sca = agg_sca / len(msgs_sca[i])
            if params.use_objects:
                oi = object_of[i]
                stack = np.concatenate([agg_geo, naive_ominus(z[i], feats.C[oi])], axis=1)
                scalars = np.concatenate([agg_sca, h[i], feats.c[oi]])
            else:
                stack = agg_geo
                scalars = np.concatenate([agg_sca, h[i]])
            dz, dh = naive_scalarize(
                params.psi_sigma, params.psi_eta, stack, scalars,
                params.node_channels, params.n_scalar,
                normalize=params.normalize, gravity=gravity,
            )
            z_new[i] = z[i] + dz
            h_new[i] = h[i] + dh
        z, h = z_new, h_new
    return z, h


def check_mlp_grads_fd(
    make_loss,
    mlps: list[MLP],
    rng: np.random.Generator,
    coords_per_tensor: int = 3,
    h: float = 1e-5,
) -> float:
    """Compare tape gradients of ``make_loss`` against central differences.

    ``make_loss(tape)`` must build the computation on the given tape and
    return the scalar loss Var; with ``tape=None`` it must return the plain
    float loss.  Returns the worst relative error over sampled coordinates.
    """
    tape = ad.Tape()
    loss = make_loss(tape)
    grads = tape.backward(loss, np.ones_like(ad.value_of(loss)))
    worst = 0.0
    for mlp in mlps:
        analytic = mlp_grads(tape, grads, mlp)
        for p, g in zip(mlp.parameters(), analytic):
            n = p.size
            if n == 0:
                continue
            coords = rng.choice(n, size=min(coords_per_tensor, n), replace=False)
            fd = fd_grad(lambda: float(ad.value_of(make_loss(None))), p, coords, h=h)
            worst = max(worst, rel_err(g.reshape(-1)[coords], fd))
    return worst
