"""Shared test utilities: finite-difference and transcription oracles."""

from __future__ import annotations

import numpy as np

from sgnn import ad
from sgnn.errors import ContractError, GenerationError
from sgnn.geometry import GRAM_NORM_EPS, Gravity, ominus
from sgnn.graph import EdgeSets, ParticleSystem, _receiver_mask
from sgnn.mlp import MLP, mlp_forward, mlp_grads
from sgnn.model import RigidFit
from sgnn.scenes import _Bodies, _contact_force

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
    lexsorts them into the sorted union ``merged`` and partitions that by
    object.
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
        return EdgeSets(merged=empty, inter=empty, inner=empty, obj=empty,
                        inter_to_obj=np.zeros((0,), dtype=np.int64))

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
    return EdgeSets(merged=edges, inter=inter, inner=inner, obj=obj,
                    inter_to_obj=inter_to_obj.reshape(-1))


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Boolean-mask sigmoid, exp never overflowing: the accuracy reference for
    ``ad.mlp``'s SiLU layers."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def add_at_scatter(index: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """``np.add.at`` into zeros: the reference for ``ad.scatter_add``."""
    out = np.zeros((rows,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def silu(a):
    """A SiLU record ``x / d`` with ``d = 1 + exp(-x)``, whose backward is
    ``g ((1 + x - y) / d)`` on its output ``y``: the reference for ``ad.mlp``'s
    SiLU layers."""
    av = ad.value_of(a)
    with np.errstate(over="ignore"):
        d = 1.0 + np.exp(-av)
    y = av / d
    return ad.record(y, (a,), lambda g: (g * ((1.0 + av - y) / d),))


def relu(a):
    """A ReLU record."""
    av = ad.value_of(a)
    return ad.record(np.maximum(av, 0.0), (a,), lambda g: (g * (av > 0.0),))


def chain_dense(x, layers):
    """Matmul, bias-add and activation records per ``(w, b, act)`` layer,
    with a 1-D ``x`` reshaped to one row and back: the reference for
    ``ad.mlp``."""
    squeeze = ad.value_of(x).ndim == 1
    h = ad.reshape(x, (1, -1)) if squeeze else x
    for w, b, act in layers:
        h = ad.add(ad.matmul(h, w), b)
        if act == "silu":
            h = silu(h)
        elif act == "relu":
            h = relu(h)
    return ad.reshape(h, (-1,)) if squeeze else h


def sqrt(a):
    """A square-root record."""
    out = np.sqrt(ad.value_of(a))
    return ad.record(out, (a,), lambda g: (g * (0.5 / out),))


def swap_last2(a):
    """A transpose of the last two axes, as one tape record."""
    return ad.record(np.swapaxes(ad.value_of(a), -1, -2), (a,),
                     lambda g: (np.swapaxes(g, -1, -2),))


def take_last(a, index):
    """A take of ``index`` along the last axis, as one tape record."""
    av = ad.value_of(a)

    def bwd(g):
        out = np.zeros_like(av)
        out[..., index] = g
        return (out,)

    return ad.record(np.take(av, index, axis=-1), (a,), bwd)


def chain_normalized_gram(z, normalize=True):
    """The record chain of the Gram matmul, its upper-triangle take and the
    matvec norm weighted by 2 off the diagonal: the reference for
    ``geometry.normalized_gram``."""
    shape = ad.value_of(z).shape
    m = shape[-1]
    rows, cols = np.triu_indices(m)
    gram = ad.reshape(ad.matmul(swap_last2(z), z), shape[:-2] + (m * m,))
    tri = take_last(gram, rows * m + cols)
    if not normalize:
        return tri
    flat = ad.reshape(tri, (-1, rows.size))
    weights = np.where(rows == cols, 1.0, 2.0)[:, None]
    sq = ad.reshape(ad.matmul(ad.mul(flat, flat), weights), shape[:-2] + (1,))
    mask = (ad.value_of(sq) >= GRAM_NORM_EPS**2).astype(np.float64)
    norm = sqrt(ad.add(ad.mul(sq, mask), 1.0 - mask))
    denom = ad.add(ad.mul(norm, mask), 1.0 - mask)
    return ad.div(tri, denom)


def square_gram(z, multiplicity=None):
    """The full normalized Gram matrix ``G / |G|`` of the column stack, with
    ``|G|^2 = sum_ab c_a c_b G_ab^2``, in plain numpy."""
    gram = np.swapaxes(z, -1, -2) @ z
    c = np.ones(z.shape[-1]) if multiplicity is None else np.asarray(multiplicity, dtype=float)
    sq = (gram * gram * np.outer(c, c)).sum(axis=(-2, -1), keepdims=True)
    return gram / np.where(sq >= GRAM_NORM_EPS**2, np.sqrt(sq), 1.0)


def chain_segment_mean(a, segments, num_segments, divisor):
    """A ``segment_sum`` record followed by a ``div`` by the divisor reshaped
    to broadcast over the trailing axes: the reference for
    ``ad.segment_sum`` with a divisor."""
    agg = ad.segment_sum(a, segments, num_segments)
    return ad.div(agg, divisor.reshape((num_segments,) + (1,) * (ad.value_of(agg).ndim - 1)))


def per_edge_gns(params, x, v, h, edges: np.ndarray, tape: ad.Tape):
    """GNS with the whole of φ run on every edge before ``segment_sum``: the
    reference for ``baselines.gns_forward``, which runs φ's last layer once
    per node after the aggregation."""
    n = ad.value_of(x).shape[0]
    recv, send = edges[:, 0], edges[:, 1]
    mask, divisor = _receiver_mask(recv, n, params.aggregate)
    mask = mask[:, None]
    for _ in range(params.iterations):
        rel = ad.sub(ad.gather(x, recv), ad.gather(x, send))
        feats = ad.concat([rel, ad.gather(v, recv), ad.gather(v, send),
                           ad.gather(h, recv), ad.gather(h, send)], axis=-1)
        agg = ad.segment_sum(mlp_forward(params.phi, feats, tape=tape), recv, n, divisor)
        upd = mlp_forward(params.psi, ad.concat([agg, v, h], axis=-1), tape=tape)
        x = ad.add(x, ad.mul(ad.narrow(upd, -1, 0, 3), mask))
        v = ad.add(v, ad.mul(ad.narrow(upd, -1, 3, 3), mask))
        h = ad.add(h, ad.mul(ad.narrow(upd, -1, 6, params.n_scalar), mask))
    return x, v, h


def chain_ominus(zi, zj):
    """The six-record stack (four narrows, a sub and a concat): the
    reference for ``geometry.ominus``."""
    mi, mj = ad.value_of(zi).shape[-1], ad.value_of(zj).shape[-1]
    rel = ad.sub(ad.narrow(zi, -1, 0, 1), ad.narrow(zj, -1, 0, 1))
    parts = [rel]
    if mi > 1:
        parts.append(ad.narrow(zi, -1, 1, mi - 1))
    if mj > 1:
        parts.append(ad.narrow(zj, -1, 1, mj - 1))
    return ad.concat(parts, axis=-1) if len(parts) > 1 else rel


def adjoint_seed(size: int, seed: int) -> np.ndarray:
    """Mixed-magnitude normals: the output adjoint ``value_and_adjoints``
    seeds its sweep with.  Its first entries are the adjoint of the value
    ``build`` returns."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=size) * 10.0 ** rng.integers(-4, 5, size=size)


def value_and_adjoints(build, inputs, seed: int, reuse: bool):
    """Output value of ``build(*vars)`` and every input's adjoint, on a fresh
    tape seeded with mixed-magnitude normals.  With ``reuse`` each input is
    also squared later on the tape, so it already holds an adjoint when the
    partials of ``build``'s records arrive."""
    tape = ad.Tape()
    vs = [tape.var(a) for a in inputs]
    y = build(*vs)
    parts = [ad.reshape(y, (-1,))]
    if reuse:
        parts += [ad.reshape(ad.mul(v, v), (-1,)) for v in vs]
    out = ad.concat(parts, axis=0)
    grads = tape.backward(out, adjoint_seed(out.shape[0], seed))
    return [y.value] + [grads.of(v) for v in vs]


def object_level_ominus(z: np.ndarray, edges: EdgeSets, k: int, l: int) -> np.ndarray:
    """Mean of particle-level (-) stacks over the inter edges from object k
    to object l, one edge at a time: the reference for
    ``graph.pooled_object_edge_features``.  ``z`` holds the per-particle
    stacks (N, 3, m)."""
    rows = np.nonzero(
        (edges.obj[:, 0] == k) & (edges.obj[:, 1] == l)
    )[0]
    if rows.size == 0:
        raise ContractError(f"objects ({k}, {l}) share no inter edges")
    mask = edges.inter_to_obj == rows[0]
    src = edges.inter[mask, 0]
    dst = edges.inter[mask, 1]
    stacks = [ominus(z[i], z[j]) for i, j in zip(src, dst)]
    return np.mean(np.stack(stacks, axis=0), axis=0)


def loop_rigid_project(predicted, reference) -> RigidFit:
    """One all-points Kabsch fit, written out step by step: the reference
    for ``model.rigid_project``."""
    predicted = np.asarray(predicted, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    ref_c = reference.mean(axis=0)
    pred_c = predicted.mean(axis=0)
    a = reference - ref_c
    b = predicted - pred_c
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[1] <= 1e-9 * max(svals[0], 1e-12):
        R, t, degenerate = np.eye(3), pred_c - ref_c, True
    else:
        H = a.T @ b
        u, _, vt = np.linalg.svd(H)
        v = vt.T
        d = np.sign(np.linalg.det(v @ u.T))
        R = v @ np.diag([1.0, 1.0, d]) @ u.T
        t = pred_c - R @ ref_c
        degenerate = False
    return RigidFit(positions=reference @ R.T + t, rotation=R, translation=t,
                    translation_only=degenerate)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """One quaternion's rotation matrix: the reference for ``scenes._rotations``."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )



def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One Hamilton product: the reference for ``scenes._quat_multiply``."""
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


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """One axis-angle quaternion: the reference for ``scenes._quat_from_axis_angle``."""
    n = np.linalg.norm(axis)
    if n < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = 0.5 * angle
    s = np.sin(half) / n
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def loop_step(bodies: _Bodies, cfg, gravity_mag: float) -> None:
    """One substep body by body, with ``np.cross`` and a rotation matrix per
    use, reading and writing one row of the body state at a time: the
    reference for ``scenes._step``."""
    g_vec = np.array([0.0, 0.0, -gravity_mag])
    com, quat, vel, omega = bodies.com, bodies.quat, bodies.vel, bodies.omega
    offsets, mass = bodies.offsets, bodies.mass
    n_bodies = com.shape[0]
    forces = [np.zeros(3) for _ in range(n_bodies)]
    torques = [np.zeros(3) for _ in range(n_bodies)]
    positions = [com[k] + offsets @ quat_to_matrix(quat[k]).T for k in range(n_bodies)]
    velocities = [vel[k] + np.cross(omega[k], offsets @ quat_to_matrix(quat[k]).T)
                  for k in range(n_bodies)]

    for k in range(n_bodies):
        forces[k] += mass * g_vec

    if cfg.ground:
        for k in range(n_bodies):
            pen = cfg.ground_height - positions[k][:, 2]
            touching = pen > 0.0
            if not touching.any():
                continue
            if pen.max() > cfg.cube_side:
                raise GenerationError("ground tunneling detected; reduce dt or stiffness")
            normal = np.tile(np.array([0.0, 0.0, 1.0]), (int(touching.sum()), 1))
            f = _contact_force(pen[touching], normal, velocities[k][touching], cfg)
            forces[k] += f.sum(axis=0)
            torques[k] += np.cross(positions[k][touching] - com[k], f).sum(axis=0)

    rc = cfg.effective_contact_radius()
    for a in range(n_bodies):
        for b in range(a + 1, n_bodies):
            gap = np.linalg.norm(com[a] - com[b])
            if gap < 0.5 * cfg.cube_side:
                raise GenerationError("object interpenetration deeper than the cube side; reduce dt")
            reach = np.sqrt(3.0) * cfg.cube_side + rc
            if gap > reach:
                continue
            diff = positions[a][:, None, :] - positions[b][None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            ia, ib = np.nonzero(dist < rc)
            if ia.size == 0:
                continue
            d = dist[ia, ib]
            normal = diff[ia, ib] / np.maximum(d, 1e-12)[:, None]
            rel = velocities[a][ia] - velocities[b][ib]
            f = _contact_force(rc - d, normal, rel, cfg)
            forces[a] += f.sum(axis=0)
            torques[a] += np.cross(positions[a][ia] - com[a], f).sum(axis=0)
            forces[b] -= f.sum(axis=0)
            torques[b] += np.cross(positions[b][ib] - com[b], -f).sum(axis=0)

    for k in range(n_bodies):
        R = quat_to_matrix(quat[k])
        inertia_world = R @ bodies.inertia_body @ R.T
        gyro = np.cross(omega[k], inertia_world @ omega[k])
        alpha = np.linalg.solve(inertia_world, torques[k] - gyro)
        vel[k] = vel[k] + cfg.dt * forces[k] / mass
        omega[k] = omega[k] + cfg.dt * alpha
        com[k] = com[k] + cfg.dt * vel[k]
        w = np.linalg.norm(omega[k])
        if w > 0.0:
            dq = quat_from_axis_angle(omega[k] / w, w * cfg.dt)
            q = quat_multiply(dq, quat[k])
            quat[k] = q / np.linalg.norm(q)


def naive_ominus(zi: np.ndarray, zj: np.ndarray) -> np.ndarray:
    return np.concatenate([zi[:, :1] - zj[:, :1], zi[:, 1:], zj[:, 1:]], axis=1)


def naive_scalarize(sigma, eta, stack, scalars, out_channels, extra,
                    normalize=True, gravity=GRAVITY, multiplicity=None):
    """Single-instance gravity-augmented scalarization, written straight:
    sigma reads the Gram's upper triangle row by row, then the scalars.
    The norm counts channel a of the stack ``multiplicity[a]`` times."""
    scale = float(np.asarray(mlp_forward(eta, scalars)).reshape(-1)[0])
    aug = np.concatenate([stack, scale * gravity.direction.reshape(3, 1)], axis=1)
    gram = aug.T @ aug
    k = aug.shape[1]
    if normalize:
        c = np.append(np.ones(k - 1) if multiplicity is None else multiplicity, 1.0)
        nrm = np.sqrt(np.sum(gram * gram * np.outer(c, c)))
        if nrm >= 1e-12:
            gram = gram / nrm
    out = mlp_forward(sigma, np.concatenate([gram[np.triu_indices(k)], scalars]))
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
            multiplicity = None
            if edge_features is not None:
                stack = edge_features[0][idx]
                scalars = edge_features[1][idx]
            elif params.use_objects:
                oi, oj = object_of[i], object_of[j]
                stack = np.concatenate(
                    [
                        z[i][:, :1] - z[j][:, :1],
                        naive_ominus(z[i], feats.C[oi]),
                        naive_ominus(z[j], feats.C[oj]),
                    ],
                    axis=1,
                )
                multiplicity = np.array([1, 1, 2, 1, 1, 2, 1])  # v_i and v_j count twice
                scalars = np.concatenate([h[i], feats.c[oi], h[j], feats.c[oj]])
            else:
                stack = naive_ominus(z[i], z[j])
                scalars = np.concatenate([h[i], h[j]])
            m_geo, m_sca = naive_scalarize(
                params.phi_sigma, params.phi_eta, stack, scalars,
                params.msg_channels, params.msg_extra,
                normalize=params.normalize, gravity=gravity, multiplicity=multiplicity,
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


def square_scalarize(z, h, sigma, eta, gravity, out_channels, extra, normalize, tape):
    """The first checkpoint format's scalarization, as a record chain: sigma
    reads every entry (a, b) of the square Gram of ``z`` plus the gated
    gravity column, over its Frobenius norm, then ``h``."""
    B, _, m = ad.value_of(z).shape
    if eta is not None:
        scale = ad.reshape(mlp_forward(eta, h, tape=tape), (B, 1, 1))
        z = ad.concat([z, ad.mul(scale, gravity.direction.reshape(3, 1))], axis=-1)
        m += 1
    gram = ad.reshape(ad.matmul(swap_last2(z), z), (B, m * m))
    if normalize:
        sq = ad.matmul(ad.mul(gram, gram), np.ones((m * m, 1)))
        mask = (ad.value_of(sq) >= GRAM_NORM_EPS**2).astype(np.float64)
        norm = sqrt(ad.add(ad.mul(sq, mask), 1.0 - mask))
        gram = ad.div(gram, ad.add(ad.mul(norm, mask), 1.0 - mask))
    out = mlp_forward(sigma, ad.concat([gram, h], axis=-1), tape=tape)
    v = ad.reshape(ad.narrow(out, -1, 0, m * out_channels), (B, m, out_channels))
    return ad.matmul(z, v), ad.narrow(out, -1, m * out_channels, extra)


def square_layout_index(chan, n_scalar: int, out_channels: int, extra: int):
    """The first format's square sigma layout over a stack whose channel k is
    distinct channel ``chan[k]``: the row of each stored first-layer row in
    the [distinct Gram triangle, scalars] layout, and the column of each
    stored output column in the one with ``out_channels`` per distinct
    channel, then ``extra``."""
    c, m = np.asarray(chan), max(chan) + 1
    rows, cols = np.triu_indices(m)
    place = np.empty((m, m), dtype=np.int64)
    place[rows, cols] = place[cols, rows] = np.arange(rows.size)
    return (np.append(place[c[:, None], c], rows.size + np.arange(n_scalar)),
            np.append(c[:, None] * out_channels + np.arange(out_channels),
                      m * out_channels + np.arange(extra)))


def full_layout_somp(params, z, h, edges, objects, object_of, gravity=GRAVITY, tape=None):
    """The object-aware layer of the first checkpoint format, taped: the
    ten-channel edge stack ``[z_r ⊖ C_r, z_s ⊖ C_s, z_r ⊖ z_s]`` plus gravity,
    repeated channels and all, and sigmas on its square Gram
    (``square_scalarize``).  With the square draws, the reference for
    ``layers.somp_forward`` on the same draws folded."""
    n_nodes = ad.value_of(z).shape[0]
    recv, send = edges[:, 0], edges[:, 1]
    mask, divisor = _receiver_mask(recv, n_nodes, params.aggregate)
    phi_eta = None if params.equivariant_only else params.phi_eta
    psi_eta = None if params.equivariant_only else params.psi_eta
    C_of = ad.gather(objects.C, object_of)
    c_of = ad.gather(objects.c, object_of)
    for _ in range(params.iterations):
        offset = ominus(z, C_of)
        hc = ad.concat([h, c_of], axis=-1)
        z_edge = ad.concat([ad.gather(offset, recv), ad.gather(offset, send),
                            ominus(ad.gather(z, recv), ad.gather(z, send))], axis=-1)
        h_edge = ad.concat([ad.gather(hc, recv), ad.gather(hc, send)], axis=-1)
        msg_geo, msg_sca = square_scalarize(
            z_edge, h_edge, params.phi_sigma, phi_eta, gravity, params.msg_channels,
            params.msg_extra, params.normalize, tape,
        )
        agg_geo = ad.segment_sum(msg_geo, recv, n_nodes, divisor)
        agg_sca = ad.segment_sum(msg_sca, recv, n_nodes, divisor)
        dz, dh = square_scalarize(
            ad.concat([agg_geo, offset], axis=-1), ad.concat([agg_sca, hc], axis=-1),
            params.psi_sigma, psi_eta, gravity, params.node_channels, params.n_scalar,
            params.normalize, tape,
        )
        z = ad.add(z, ad.mul(dz, mask[:, None, None]))
        h = ad.add(h, ad.mul(dh, mask[:, None]))
    return z, h


def per_tensor_adam(params, adam_m, adam_v, grads, t, lr, betas=(0.9, 0.999), eps=1e-8):
    """Bias-corrected Adam on one moment array per tensor, in place: the
    reference for ``mlp.adam_step``."""
    b1, b2 = betas
    for p, m, v, g in zip(params, adam_m, adam_v, grads):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


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
