"""Interaction graph: cutoff edges vs brute force and a reference loop; pooling vs naive loops."""

import numpy as np
import pytest

from sgnn.errors import ContractError
from sgnn.geometry import Gravity, ominus, random_subgroup_transform
from sgnn.graph import (
    EdgeSets,
    ParticleSystem,
    build_edges,
    pool_objects,
    pooled_object_edge_features,
)
from sgnn.scenes import SceneConfig, generate_scene

from helpers import loop_build_edges, object_level_ominus


def brute_force_edges(system: ParticleSystem, r: float) -> EdgeSets:
    """O(N^2) oracle for the cutoff graph with the same partitioning."""
    n = system.n_particles
    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if np.linalg.norm(system.positions[i] - system.positions[j]) < r:
                pairs.append((i, j))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    same = system.object_of[edges[:, 0]] == system.object_of[edges[:, 1]] if len(pairs) else np.zeros(0, bool)
    inner = edges[same] if len(pairs) else edges
    inter = edges[~same] if len(pairs) else edges
    if inter.shape[0]:
        obj_pairs = np.stack([system.object_of[inter[:, 0]], system.object_of[inter[:, 1]]], axis=1)
        obj, inter_to_obj = np.unique(obj_pairs, axis=0, return_inverse=True)
    else:
        obj = np.zeros((0, 2), dtype=np.int64)
        inter_to_obj = np.zeros(0, dtype=np.int64)
    return EdgeSets(merged=edges, inter=inter, inner=inner, obj=obj,
                    inter_to_obj=inter_to_obj.reshape(-1))


def random_system(rng, n=24, objects=3, spread=1.0, n_attrs=2) -> ParticleSystem:
    return ParticleSystem(
        positions=rng.uniform(-spread, spread, size=(n, 3)),
        velocities=rng.normal(size=(n, 3)) * 0.1,
        attrs=rng.normal(size=(n, n_attrs)),
        object_of=np.sort(rng.integers(0, objects, size=n)) % objects
        if objects > 1
        else np.zeros(n, dtype=int),
    )


def make_system(positions, object_of, velocities=None, attrs=None):
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    return ParticleSystem(
        positions=positions,
        velocities=np.zeros((n, 3)) if velocities is None else velocities,
        attrs=np.ones((n, 1)) if attrs is None else attrs,
        object_of=np.asarray(object_of),
    )


def test_distant_particles_no_edges():
    sys_ = make_system([[0, 0, 0], [0, 0, 2.0]], [0, 1])
    edges = build_edges(sys_, r=1.0)
    assert edges.inter.shape[0] == 0
    assert edges.inner.shape[0] == 0
    assert edges.obj.shape[0] == 0


def test_two_close_particles_cross_object():
    sys_ = make_system([[0, 0, 0], [0, 0, 0.5]], [0, 1])
    edges = build_edges(sys_, r=1.0)
    np.testing.assert_array_equal(edges.inter, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(edges.obj, [[0, 1], [1, 0]])
    assert edges.inner.shape[0] == 0


@pytest.mark.parametrize("trial", range(8))
def test_matches_brute_force_scan(trial):
    rng = np.random.default_rng(200 + trial)
    sys_ = random_system(rng, n=64, objects=4, spread=0.8)
    r = float(rng.uniform(0.2, 0.7))
    fast = build_edges(sys_, r)
    slow = brute_force_edges(sys_, r)
    np.testing.assert_array_equal(fast.inter, slow.inter)
    np.testing.assert_array_equal(fast.inner, slow.inner)
    np.testing.assert_array_equal(fast.obj, slow.obj)
    # partition covers the cutoff graph disjointly
    assert fast.inter.shape[0] + fast.inner.shape[0] == slow.inter.shape[0] + slow.inner.shape[0]


def assert_same_edges(got: EdgeSets, want: EdgeSets):
    for name in ("merged", "inter", "inner", "obj", "inter_to_obj"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("trial", range(12))
def test_matches_loop_on_random_clouds(trial):
    rng = np.random.default_rng(500 + trial)
    n = [0, 1, 2, 7, 40, 150][trial % 6]
    sys_ = random_system(rng, n=n, objects=min(4, max(n, 1)), spread=float(rng.uniform(0.1, 2.0)))
    r = float(rng.uniform(0.05, 0.9))
    assert_same_edges(build_edges(sys_, r), loop_build_edges(sys_, r))


@pytest.mark.parametrize("spacing,r", [(0.5, 0.5), (0.25, 0.5), (0.08, 0.08), (0.04, 0.08),
                                       (0.1, 0.1 * np.sqrt(2.0))])
def test_matches_loop_on_lattice_at_cutoff(spacing, r):
    # Lattice neighbours sit exactly at (or within rounding of) the cutoff and
    # on cell boundaries, where norm(d) < r and d @ d < r * r can disagree.
    grid = np.arange(-3, 4) * spacing
    pos = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    object_of = (np.arange(pos.shape[0]) * 3) // pos.shape[0]
    sys_ = make_system(pos, object_of)
    assert_same_edges(build_edges(sys_, r), loop_build_edges(sys_, r))
    d = pos[:, None, :] - pos[None, :, :]
    assert np.isclose(np.einsum("ijk,ijk->ij", d, d), r * r, rtol=1e-12, atol=0).any()


def test_matches_loop_on_shell_at_cutoff():
    # Neighbours of particle 0 lie within a few ulps of distance r, so whether
    # each pair is an edge depends on how d @ d rounds; (d * d).sum(1) and
    # einsum round some of them the other way.
    rng = np.random.default_rng(11)
    r = 0.08
    u = rng.normal(size=(300, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    shell = u * r * (1.0 + rng.integers(-3, 4, size=(300, 1)) * 2.0**-52)
    pos = np.concatenate([np.zeros((1, 3)), shell])
    sys_ = make_system(pos, np.arange(301) % 2)
    want = loop_build_edges(sys_, r)
    assert_same_edges(build_edges(sys_, r), want)
    from_origin = np.count_nonzero(want.merged[:, 0] == 0)
    assert 0 < from_origin < 300


def test_matches_loop_on_every_scene_frame():
    cfg = SceneConfig(objects=3, frames=41, push_speed=0.25, bias_angle=0.0,
                      drop_height=0.12, seed=0)
    traj = generate_scene(cfg)
    contacts = 0
    for t in range(1, traj.n_frames):
        sys_ = traj.system_at(t)
        want = loop_build_edges(sys_, 0.08)
        assert_same_edges(build_edges(sys_, 0.08), want)
        contacts += want.inter.shape[0]
    assert contacts > 0


@pytest.mark.parametrize("trial", range(4))
def test_matches_loop_on_diverged_clouds(trial):
    # Coordinates up to +-1e12 clip to the +-2**31 boundary cells, so far-apart
    # particles share a cell; keys 2**21 apart fold onto one cell code.  Neither
    # may add or drop an edge.
    rng = np.random.default_rng(900 + trial)
    r = 0.08
    parts = [
        rng.uniform(-0.3, 0.3, size=(30, 3)),
        1e12 * rng.choice([-1.0, 1.0], size=(30, 3)) + rng.uniform(-0.05, 0.05, size=(30, 3)),
        rng.uniform(-1e12, 1e12, size=(20, 3)),
        np.array([[2.0**31 * r, 0, 0], [2.0**31 * r + 0.03, 0, 0], [-(2.0**31) * r, 0, 0]]),
        np.array([[0.0, 0, 0], [2.0**21 * r, 0, 0], [2.0**21 * r, 2.0**21 * r, 0.01]]),
        np.array([[1e12, 0.0, 0.0], [1e12, 0.05, 0.0], [-1e12, 1e12, 0.0]]),
    ]
    pos = np.concatenate(parts)[rng.permutation(sum(p.shape[0] for p in parts))]
    object_of = np.arange(pos.shape[0]) % 5
    sys_ = make_system(pos, object_of)
    want = loop_build_edges(sys_, r)
    assert_same_edges(build_edges(sys_, r), want)
    assert want.inter.shape[0] and want.inner.shape[0]


def test_edges_invariant_under_rigid_motion():
    rng = np.random.default_rng(3)
    sys_ = random_system(rng, n=40, objects=3)
    r = 0.5
    base = build_edges(sys_, r)
    tr = random_subgroup_transform(rng, Gravity(), translation_scale=2.0)
    O = tr.O
    moved = ParticleSystem(
        positions=sys_.positions @ O.T + tr.t,
        velocities=sys_.velocities @ O.T,
        attrs=sys_.attrs,
        object_of=sys_.object_of,
    )
    got = build_edges(moved, r)
    np.testing.assert_array_equal(base.inter, got.inter)
    np.testing.assert_array_equal(base.inner, got.inner)
    np.testing.assert_array_equal(base.obj, got.obj)


def test_merged_edges_sorted_cover():
    rng = np.random.default_rng(4)
    sys_ = random_system(rng, n=30, objects=2)
    edges = build_edges(sys_, 0.6)
    merged = edges.merged
    assert edges.inter.shape[0] and edges.inner.shape[0]
    order = np.lexsort((merged[:, 1], merged[:, 0]))
    np.testing.assert_array_equal(order, np.arange(merged.shape[0]))
    both = np.concatenate([edges.inter, edges.inner], axis=0)
    np.testing.assert_array_equal(merged, both[np.lexsort((both[:, 1], both[:, 0]))])


def test_pool_single_particle_object():
    sys_ = make_system([[1.0, 2.0, 3.0]], [0], velocities=np.array([[0.1, 0.2, 0.3]]))
    feats = pool_objects(sys_)
    np.testing.assert_array_equal(feats.C[0, :, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(feats.C[0, :, 1], [0.1, 0.2, 0.3])


def test_pool_two_particle_mean():
    sys_ = make_system([[0, 0, 0], [2.0, 0, 0]], [0, 0])
    feats = pool_objects(sys_)
    np.testing.assert_array_equal(feats.C[0, :, 0], [1.0, 0.0, 0.0])


def test_pool_matches_naive_loop():
    rng = np.random.default_rng(5)
    sys_ = random_system(rng, n=25, objects=3, n_attrs=3)
    feats = pool_objects(sys_)
    for k in range(sys_.n_objects):
        members = np.nonzero(sys_.object_of == k)[0]
        want_c = np.stack(
            [sys_.positions[members].mean(axis=0), sys_.velocities[members].mean(axis=0)],
            axis=-1,
        )
        np.testing.assert_allclose(feats.C[k], want_c, atol=1e-12)
        np.testing.assert_allclose(feats.c[k], sys_.attrs[members].sum(axis=0), atol=1e-12)


def test_pool_commutes_with_rotation():
    rng = np.random.default_rng(6)
    sys_ = random_system(rng, n=20, objects=2)
    O = random_subgroup_transform(rng, Gravity()).O
    moved = ParticleSystem(
        positions=sys_.positions @ O.T,
        velocities=sys_.velocities @ O.T,
        attrs=sys_.attrs,
        object_of=sys_.object_of,
    )
    a = pool_objects(moved).C
    b = np.einsum("ab,kbm->kam", O, pool_objects(sys_).C)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_nan_cutoff_rejected_infinite_cutoff_keeps_every_pair():
    sys_ = make_system([[0, 0, 0], [1, 1, 1], [5, 0, 0]], [0, 0, 1])
    with pytest.raises(ContractError, match="cutoff"):
        build_edges(sys_, float("nan"))
    assert build_edges(sys_, float("inf")).merged.shape == (6, 2)


def test_empty_object_rejected():
    with pytest.raises(ContractError):
        make_system([[0, 0, 0], [1, 1, 1]], [0, 2])


def test_huge_object_index_rejected_before_counting():
    """A corrupt index fails on its bound, not on a bincount of 2**40 bins."""
    with pytest.raises(ContractError, match="exceeds"):
        make_system([[0, 0, 0], [1, 1, 1]], [0, 2**40])


def test_object_ominus_single_edge():
    sys_ = make_system([[0, 0, 0], [0.2, 0, 0]], [0, 1])
    edges = build_edges(sys_, 0.5)
    z = sys_.geometric_stack()
    got = object_level_ominus(z, edges, 0, 1)
    want = ominus(z[0], z[1])
    np.testing.assert_array_equal(got, want)


def test_object_ominus_opposite_edges_cancel_position():
    # two bridging edges with opposite relative positions, equal velocities
    pos = np.array([[0, 0, 0], [1.0, 0, 0], [0.3, 0, 0], [0.7, 0, 0]])
    vel = np.tile(np.array([[0.1, 0.0, 0.0]]), (4, 1))
    sys_ = make_system(pos, [0, 0, 1, 1], velocities=vel)
    edges = build_edges(sys_, 0.45)
    z = sys_.geometric_stack()
    got = object_level_ominus(z, edges, 0, 1)
    np.testing.assert_allclose(got[:, 0], np.zeros(3), atol=1e-15)


def test_object_ominus_matches_enumeration():
    rng = np.random.default_rng(7)
    sys_ = random_system(rng, n=24, objects=3, spread=0.4)
    edges = build_edges(sys_, 0.5)
    z = sys_.geometric_stack()
    h = sys_.attrs
    if edges.obj.shape[0] == 0:
        pytest.skip("no object contacts in this draw")
    zpool, hpool = pooled_object_edge_features(z, h, edges)
    for row, (k, l) in enumerate(edges.obj):
        want = object_level_ominus(z, edges, int(k), int(l))
        np.testing.assert_allclose(zpool[row], want, atol=1e-12)
        mask = edges.inter_to_obj == row
        hs = [np.concatenate([h[i], h[j]]) for i, j in edges.inter[mask]]
        np.testing.assert_allclose(hpool[row], np.mean(hs, axis=0), atol=1e-12)


def test_object_ominus_requires_contact():
    sys_ = make_system([[0, 0, 0], [5.0, 0, 0]], [0, 1])
    edges = build_edges(sys_, 0.5)
    with pytest.raises(ContractError):
        object_level_ominus(sys_.geometric_stack(), edges, 0, 1)
