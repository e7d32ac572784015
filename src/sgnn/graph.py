"""Particle interaction graphs: cutoff edges, object pooling, edge separation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ad
from .errors import ContractError, ShapeError
from .geometry import ominus


def _check_object_of(object_of: np.ndarray) -> None:
    """Object indices must be non-negative and leave no object empty."""
    if object_of.size:
        if object_of.min() < 0:
            raise ContractError("negative object index")
        if (np.bincount(object_of) == 0).any():
            raise ContractError("every object must own at least one particle")


@dataclass
class ParticleSystem:
    """One frame of a particle scene.

    velocities are per-frame displacements (finite differences of recorded
    positions), attrs are per-particle invariant features, object_of maps
    each particle to its object index.
    """

    positions: np.ndarray  # (N, 3)
    velocities: np.ndarray  # (N, 3)
    attrs: np.ndarray  # (N, n)
    object_of: np.ndarray  # (N,) int

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        self.attrs = np.atleast_2d(np.asarray(self.attrs, dtype=np.float64))
        self.object_of = np.asarray(self.object_of, dtype=np.int64)
        n = self.positions.shape[0]
        if self.positions.shape != (n, 3) or self.velocities.shape != (n, 3):
            raise ShapeError("positions/velocities must be (N, 3)")
        if self.attrs.shape[0] != n or self.object_of.shape != (n,):
            raise ShapeError("attrs/object_of must have N rows")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise ContractError("non-finite positions or velocities")
        _check_object_of(self.object_of)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def n_objects(self) -> int:
        return int(self.object_of.max()) + 1 if self.n_particles else 0

    def geometric_stack(self) -> np.ndarray:
        """Per-particle stack [position, velocity] of shape (N, 3, 2)."""
        return np.stack([self.positions, self.velocities], axis=-1)


@dataclass
class EdgeSets:
    """Cutoff graph split into cross-object, within-object and object edges.

    Particle edge lists are directed and symmetric ((i, j) implies (j, i)),
    sorted lexicographically.  ``obj`` holds the object pairs bridged by at
    least one inter edge; ``inter_to_obj`` maps each inter edge to its row in
    ``obj``.
    """

    inter: np.ndarray  # (Ei, 2) int
    inner: np.ndarray  # (Ew, 2) int
    obj: np.ndarray  # (K, 2) int
    inter_to_obj: np.ndarray = field(default_factory=lambda: np.zeros((0,), dtype=np.int64))


def _empty_edges() -> np.ndarray:
    return np.zeros((0, 2), dtype=np.int64)


# Cell keys are folded into one int64 code of 21 bits per axis.  Folding
# wraps keys that differ by a multiple of 2**21 onto the same code, so a code
# match only nominates a candidate pair; the exact key test below decides.
_CELL_BITS = 21
_CELL_MASK = (1 << _CELL_BITS) - 1


def _candidate_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) whose folded cell code is one of i's 27 neighbour codes.

    Particles are argsorted by their own code; ``searchsorted`` then finds
    the run of particles under each neighbour code.  The 27 codes of one
    cell are distinct, so no pair is nominated twice.
    """
    n = keys.shape[0]
    steps = np.array([-1, 0, 1], dtype=np.int64)[:, None]
    cx, cy, cz = (
        ((keys[:, axis] + steps) & _CELL_MASK) << (_CELL_BITS * (2 - axis))
        for axis in range(3)
    )
    # row 13 of the (27, N) neighbour codes is offset (0, 0, 0): the own cell
    queries = (cx[:, None, None, :] | cy[None, :, None, :] | cz[None, None, :, :]).reshape(27, n)
    order = np.argsort(queries[13])
    sorted_codes = queries[13][order]
    queries = queries.reshape(-1)
    lo = np.searchsorted(sorted_codes, queries, side="left")
    counts = np.searchsorted(sorted_codes, queries, side="right") - lo
    run_start = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    senders = np.repeat(np.tile(np.arange(n), 27), counts)
    receivers = order[run_start + np.arange(run_start.shape[0])]
    return senders, receivers


def build_edges(system: ParticleSystem, r: float) -> EdgeSets:
    """All directed particle pairs closer than ``r``, partitioned by object.

    Sort-based cell binning: positions are floor-divided by ``r`` into
    integer cell keys (clipped to +-2**31 so diverged coordinates share the
    boundary cells), particles are argsorted by cell code, and each
    particle's 27 neighbour cells are looked up with ``searchsorted``.
    An edge (i, j) is a pair with i != j, cell keys at most one apart on
    every axis, and ``d @ d < r * r`` for d = x_i - x_j, evaluated with the
    same float dot product as a per-pair loop.  Edges are in lexicographic
    (i, j) order, so downstream aggregation is reproducible.
    """
    if r <= 0:
        raise ContractError("cutoff radius must be positive")
    pos = system.positions
    n = pos.shape[0]
    keys = np.floor(np.clip(pos / r, -2.0**31, 2.0**31)).astype(np.int64)
    i, j = _candidate_pairs(keys)

    keep = i != j
    for axis in range(3):
        k = keys[:, axis]
        step = k[j] - k[i]
        keep &= (step >= -1) & (step <= 1)
    i, j = i[keep], j[keep]
    d = np.take(pos, i, axis=0) - np.take(pos, j, axis=0)
    # batched (1, 3) @ (3, 1) runs the same dot kernel as d_row @ d_row;
    # (d * d).sum(1) or einsum would round differently
    close = (d[:, None, :] @ d[:, :, None])[:, 0, 0] < r * r
    if not close.any():
        return EdgeSets(inter=_empty_edges(), inner=_empty_edges(), obj=_empty_edges())

    pair_code = np.sort(i[close] * n + j[close])
    edges = np.stack([pair_code // n, pair_code % n], axis=1)
    obj_i = system.object_of[edges[:, 0]]
    obj_j = system.object_of[edges[:, 1]]
    same = obj_i == obj_j
    inner = edges[same]
    inter = edges[~same]

    if inter.shape[0]:
        m = system.n_objects
        obj_code, inter_to_obj = np.unique(obj_i[~same] * m + obj_j[~same], return_inverse=True)
        obj = np.stack([obj_code // m, obj_code % m], axis=1)
    else:
        obj = _empty_edges()
        inter_to_obj = np.zeros((0,), dtype=np.int64)
    return EdgeSets(inter=inter, inner=inner, obj=obj, inter_to_obj=inter_to_obj)


def merged_particle_edges(edges: EdgeSets) -> np.ndarray:
    """All particle edges (inter plus inner) in lexicographic order."""
    if edges.inter.shape[0] == 0:
        return edges.inner
    if edges.inner.shape[0] == 0:
        return edges.inter
    both = np.concatenate([edges.inter, edges.inner], axis=0)
    order = np.lexsort((both[:, 1], both[:, 0]))
    return both[order]


@dataclass
class ObjectFeatures:
    """Per-object pooled state: mean geometric stack, summed scalars."""

    C: np.ndarray  # (M, 3, 2)
    c: np.ndarray  # (M, n)


def pool_objects(system: ParticleSystem) -> ObjectFeatures:
    """Mean-pool [x, v] and sum-pool attrs over each object's particles."""
    m = system.n_objects
    if m == 0:
        raise ContractError("cannot pool an empty system")
    counts = np.bincount(system.object_of, minlength=m).astype(np.float64)
    if (counts == 0).any():
        raise ContractError("every object must own at least one particle")
    stack = system.geometric_stack()
    C = np.zeros((m, 3, 2))
    np.add.at(C, system.object_of, stack)
    C /= counts[:, None, None]
    c = np.zeros((m, system.attrs.shape[1]))
    np.add.at(c, system.object_of, system.attrs)
    return ObjectFeatures(C=C, c=c)


def pooled_object_edge_features(z, h, edges: EdgeSets):
    """Object-edge features from updated particle states.

    For each object pair (k, l) the geometric feature is the mean of the
    per-edge stacks z_i (-) z_j over the inter edges bridging k and l, and
    the scalar feature is the matching mean of [h_i, h_j].  Differentiable:
    feeds the object stage from the first particle stage's outputs.
    """
    n_obj_edges = edges.obj.shape[0]
    if n_obj_edges == 0:
        raise ContractError("no object edges to pool")
    src = edges.inter[:, 0]
    dst = edges.inter[:, 1]
    zi = ad.gather(z, src)
    zj = ad.gather(z, dst)
    per_edge = ominus(zi, zj)
    hi = ad.gather(h, src)
    hj = ad.gather(h, dst)
    per_edge_h = ad.concat([hi, hj], axis=-1)
    counts = np.bincount(edges.inter_to_obj, minlength=n_obj_edges).astype(np.float64)
    zsum = ad.segment_sum(per_edge, edges.inter_to_obj, n_obj_edges)
    hsum = ad.segment_sum(per_edge_h, edges.inter_to_obj, n_obj_edges)
    zmean = ad.div(zsum, counts[:, None, None])
    hmean = ad.div(hsum, counts[:, None])
    return zmean, hmean


def object_level_ominus(z: np.ndarray, edges: EdgeSets, k: int, l: int) -> np.ndarray:
    """Mean of particle-level (-) stacks over the inter edges from object k
    to object l.  ``z`` holds the updated per-particle stacks (N, 3, m)."""
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
