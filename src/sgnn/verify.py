"""Executable property suites: symmetry claims, gradient checks, witness
reconstruction, and the expressivity-ordering reductions.

Each suite returns a list of ``PropertyResult`` rows; the CLI prints them
and fails the process if any row fails.  The suites are also the backing
for the acceptance tests, so thresholds here are the authoritative ones.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import ad
from .baselines import (BASELINE_VARIANTS, EGNNParams, egnn_forward, make_baseline,
                        make_egnn_params, make_gmn_params)
from .errors import ContractError, GramMismatchError
from .geometry import (
    Gravity,
    check_equivariance,
    horizontal_axis_rotation,
    lemma5_witness,
    random_subgroup_transform,
    scalarize_subequivariant,
    triangle,
)
from .graph import ParticleSystem, build_edges, pool_objects
from .layers import NODE_CHANNELS, SompParams, fold_square_sigma, make_somp_params, somp_forward
from .mlp import MLP, adam_step, mlp_grads, mlp_init
from .model import make_sgnn_model

GRAVITY = Gravity()


@dataclass
class PropertyResult:
    name: str
    value: float
    threshold: float
    mode: str  # "max": value must stay below threshold; "min": above

    @property
    def passed(self) -> bool:
        return self.value < self.threshold if self.mode == "max" else self.value > self.threshold

    def line(self) -> str:
        cmp = "<" if self.mode == "max" else ">"
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value={self.value:.3e} (require {cmp} {self.threshold:g})"


def _random_system(rng, n=10, objects=2, n_attrs=2, spread=0.4) -> ParticleSystem:
    return ParticleSystem(
        positions=rng.uniform(-spread, spread, size=(n, 3)),
        velocities=0.2 * rng.normal(size=(n, 3)),
        attrs=rng.normal(size=(n, n_attrs)),
        object_of=np.arange(n) % objects,
    )


def _nonzero_sgnn(rng, n_scalar=2, hidden=16, iterations=2, cutoff=0.5):
    model = make_sgnn_model(
        rng, n_scalar, hidden=hidden, iterations=iterations, zero_init_update=False,
        msg_channels=2, msg_extra=4, cutoff=cutoff,
    )
    # push the residual scale up so symmetry violations are clearly visible
    for params in (model.stage1, model.stage2, model.stage3):
        for sigma in (params.phi_sigma, params.psi_sigma):
            sigma.weights[-1] *= 3.0
    return model


def _system_fn(model, object_of):
    def fn(geo, sca):
        z = geo[0]
        system = ParticleSystem(
            positions=z[:, :, 0], velocities=z[:, :, 1], attrs=sca[0], object_of=object_of
        )
        return [model.predict(system)[:, :, None]], []

    return fn


def _witness(model, system: ParticleSystem, sample_O, seed: int) -> float:
    """Largest deviation of ``model.predict`` from commuting with 20 maps
    drawn by ``sample_O``; a clearly nonzero value breaks that symmetry."""
    rng = np.random.default_rng(seed)
    base = model.predict(system)
    worst = 0.0
    for _ in range(20):
        O = sample_O(rng)
        moved = ParticleSystem(
            positions=system.positions @ O.T, velocities=system.velocities @ O.T,
            attrs=system.attrs, object_of=system.object_of,
        )
        worst = max(worst, float(np.max(np.abs(model.predict(moved) - base @ O.T))))
    return worst


# ----------------------------------------------------------- equivariance

def equivariance_suite(trials: int = 200, seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    results = []

    # gravity-augmented scalarization commutes with the axis subgroup
    sigma = mlp_init(rng, [6 + 2, 16, (2 + 1) * 2])  # the triangle of 3 channels, 2 scalars
    eta = mlp_init(rng, [2, 8, 1])
    z0 = rng.normal(size=(3, 2))
    h0 = rng.normal(size=2)

    def scal_fn(geo, sca):
        y, _ = scalarize_subequivariant(geo[0][None], sca[0][None], sigma, eta, GRAVITY,
                                        out_channels=2)
        return [y[0]], []

    dev = check_equivariance(scal_fn, ([z0], [h0]), group="og3", trials=trials, seed=seed + 1)
    results.append(PropertyResult("scalarization axis equivariance", dev, 1e-9, "max"))

    # one message-passing layer, axis subgroup plus translations
    params = make_somp_params(rng, 2, hidden=12, iterations=2, zero_init_update=False, msg_extra=4)
    sys0 = _random_system(rng)
    edges = build_edges(sys0, 0.7).merged

    def layer_fn(geo, sca):
        z = geo[0]
        system = ParticleSystem(
            positions=z[:, :, 0], velocities=z[:, :, 1], attrs=sca[0], object_of=sys0.object_of
        )
        feats = pool_objects(system)
        z2, h2 = somp_forward(
            params, system.geometric_stack(), system.attrs, edges,
            objects=feats, object_of=system.object_of, gravity=GRAVITY,
        )
        return [z2], [h2]

    dev = check_equivariance(
        layer_fn, ([sys0.geometric_stack()], [sys0.attrs]), group="og3",
        trials=trials, seed=seed + 2, translate=True,
    )
    results.append(PropertyResult("message passing axis equivariance", dev, 1e-9, "max"))

    # full hierarchical prediction, axis subgroup plus translations
    model = make_sgnn_model(
        rng, 2, hidden=16, iterations=2, zero_init_update=False,
        msg_channels=2, msg_extra=4, cutoff=0.5,
    )
    sys1 = _random_system(rng, n=12, objects=3)
    dev = check_equivariance(
        _system_fn(model, sys1.object_of),
        ([sys1.geometric_stack()], [sys1.attrs]), group="og3",
        trials=trials, seed=seed + 3, translate=True,
    )
    results.append(PropertyResult("full model axis equivariance", dev, 1e-9, "max"))

    # strictness: a horizontal-axis rotation must break the full model
    witness_model = _nonzero_sgnn(np.random.default_rng(seed + 40))
    witness = _witness(witness_model, sys1, horizontal_axis_rotation, seed + 4)
    results.append(PropertyResult("full orthogonal symmetry broken (witness)", witness, 1e-3, "min"))

    # fully equivariant baselines pass the whole orthogonal group; the
    # gravity-adapted ones pass the axis subgroup, and the full group breaks
    for variant, group, s in [(v, "o3", seed + 5) for v in ("egnn", "gmn")] + [
            (v, "og3", seed + 8) for v in ("egnn_s", "gmn_s")]:
        b = make_baseline(variant, np.random.default_rng(s), 2,
                          hidden=12, iterations=2, zero_init_update=False, cutoff=0.5)
        sys2 = _random_system(np.random.default_rng(s + 1), n=8, objects=2)
        dev = check_equivariance(
            _system_fn(b, sys2.object_of), ([sys2.geometric_stack()], [sys2.attrs]),
            group=group, trials=min(trials, 100), seed=s + 2, translate=True,
        )
        kind = "full orthogonal equivariance" if group == "o3" else "axis equivariance"
        results.append(PropertyResult(f"{variant} {kind}", dev, 1e-9, "max"))
        if group == "og3":
            witness = _witness(b, sys2, horizontal_axis_rotation, seed + 11)
            results.append(
                PropertyResult(f"{variant} full orthogonal broken (witness)", witness, 1e-3, "min"))

    # non-equivariant baseline: a vertical-axis rotation already breaks it
    gns = make_baseline("gns", np.random.default_rng(seed + 12), 2, hidden=12, iterations=2,
                        zero_init_update=False, cutoff=0.5)
    for m in gns.mlps():
        m.weights[-1] *= 3.0
    sys4 = _random_system(np.random.default_rng(seed + 13), n=8, objects=2)
    witness = _witness(gns, sys4, lambda rng: random_subgroup_transform(rng).O, seed + 14)
    results.append(PropertyResult("gns axis symmetry broken (witness)", witness, 1e-3, "min"))
    return results


# -------------------------------------------------------------- gradients

def _fd_check(make_loss, mlps: list[MLP], rng, coords_per_tensor=2, h=1e-5,
              tensors_per_mlp=2) -> float:
    tape = ad.Tape()
    loss = make_loss(tape)
    grads = tape.backward(loss, np.ones_like(ad.value_of(loss)))
    worst = 0.0
    for net in mlps:
        analytic = mlp_grads(tape, grads, net)
        tensors = list(zip(net.parameters(), analytic))
        picks = rng.choice(len(tensors), size=min(tensors_per_mlp, len(tensors)), replace=False)
        for tensor_idx in picks:
            p, g = tensors[tensor_idx]
            if p.size == 0:
                continue
            coords = rng.choice(p.size, size=min(coords_per_tensor, p.size), replace=False)
            flat = p.reshape(-1)
            for idx in coords:
                orig = flat[idx]
                flat[idx] = orig + h
                up = float(ad.value_of(make_loss(None)))
                flat[idx] = orig - h
                down = float(ad.value_of(make_loss(None)))
                flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                a = g.reshape(-1)[idx]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-5))
    return worst


def gradient_suite(instances: int = 100, seed: int = 0) -> list[PropertyResult]:
    results = []

    def somp_case(case_rng):
        params = make_somp_params(case_rng, 2, hidden=8, iterations=1,
                                  zero_init_update=False, msg_extra=4)
        sys_ = _random_system(case_rng, n=6, objects=2)
        feats = pool_objects(sys_)
        edges = build_edges(sys_, 0.9).merged
        proj = case_rng.normal(size=(3, 2))

        def make_loss(tape):
            z, h = sys_.geometric_stack(), sys_.attrs
            if tape is not None:
                z, h = tape.var(z), tape.var(h)
            z2, _ = somp_forward(params, z, h, edges, objects=feats,
                                 object_of=sys_.object_of, gravity=GRAVITY, tape=tape)
            return ad.sum_(ad.mul(z2, proj))

        return make_loss, params.mlps()

    def model_case(make, n, **kw):
        """A model, a random system with its edges, a projection and a summed loss."""
        def build(case_rng):
            net = make(case_rng, 2, hidden=8, iterations=1, zero_init_update=False,
                       cutoff=0.9, **kw)
            sys_ = _random_system(case_rng, n=n, objects=2)
            edges = build_edges(sys_, net.cutoff)
            proj = case_rng.normal(size=(n, 3))

            def make_loss(tape):
                return ad.sum_(ad.mul(net.predict(sys_, edges, tape=tape), proj))

            return make_loss, net.mlps()

        return build

    cases = [
        ("message passing layer", somp_case),
        ("full model", model_case(make_sgnn_model, 8, msg_extra=4)),
    ] + [(v, model_case(partial(make_baseline, v), 6, activation="silu"))
         for v in BASELINE_VARIANTS]
    per_case = max(1, instances)
    for name, builder in cases:
        worst = 0.0
        for k in range(per_case):
            # crc32, not hash(): str hashes are salted per process
            case_seed = seed * 1000 + zlib.crc32(name.encode()) % 997 + k
            case_rng = np.random.default_rng(case_seed)
            make_loss, mlps = builder(case_rng)
            worst = max(worst, _fd_check(make_loss, mlps, case_rng))
        results.append(PropertyResult(f"gradients {name}", worst, 1e-4, "max"))
    return results


# ---------------------------------------------------------------- witness

def lemma5_suite(trials: int = 1000, seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        z2 = rng.normal(size=(3, m))
        o_true = random_subgroup_transform(rng, GRAVITY).O
        z1 = o_true @ z2
        tr = lemma5_witness(z1, z2, GRAVITY)
        worst = max(worst, float(np.max(np.abs(tr.O @ z2 - z1))))
    results = [PropertyResult("witness reconstruction error", worst, 1e-6, "max")]

    rejected = 0
    checks = 100
    for _ in range(checks):
        z2 = rng.normal(size=(3, 2))
        z1 = z2 + np.array([[0.0], [0.0], [1.0]]) @ np.ones((1, 2))
        try:
            lemma5_witness(z1, z2, GRAVITY)
        except GramMismatchError:
            rejected += 1
    results.append(
        PropertyResult("mismatched Grams rejected (fraction)", rejected / checks, 0.999, "min")
    )
    return results


# -------------------------------------------------------------- reductions

def _zero_pad(outer: MLP, inner: MLP, channels: int, keep: list[int], scalars: list[int],
              out_channels: int) -> MLP:
    """``inner``, a sigma on the channels ``keep`` of the ``channels``-channel
    stack that ``outer`` reads and on its scalar inputs ``scalars``, as a net
    of ``outer``'s shapes whose other rows and output columns are zero."""
    keep = np.asarray(keep)
    rows = np.append(triangle(channels)[1][keep[:, None], keep][np.triu_indices(keep.size)],
                     channels * (channels + 1) // 2 + np.asarray(scalars))
    extra = inner.weights[-1].shape[1] - keep.size * out_channels
    cols = np.append(keep[:, None] * out_channels + np.arange(out_channels),
                     channels * out_channels + np.arange(extra))
    first, last, bias = (np.zeros_like(a) for a in (outer.weights[0], outer.weights[-1],
                                                     outer.biases[-1]))
    first[rows] = inner.weights[0]
    last[:, cols] = inner.weights[-1]
    bias[cols] = inner.biases[-1]
    return MLP([first, *inner.weights[1:-1], last], [*inner.biases[:-1], bias],
               list(inner.activations))


def embed_gmn_in_somp(gmn: SompParams, rng) -> SompParams:
    """Object-aware layer from ``make_somp_params`` with an equivariant,
    unnormalized multichannel layer's sigmas zero-padded in: phi_sigma on the
    edge stack's x_r - x_s, v_r and v_s (channels 0, 2 and 5) and h_r, h_s,
    psi_sigma on the messages, the own velocity (mc + 1) and [agg, h]."""
    mc, w, n = gmn.msg_channels, gmn.msg_extra, gmn.n_scalar
    somp = make_somp_params(rng, n, hidden=gmn.phi_sigma.weights[0].shape[1], msg_channels=mc,
                            msg_extra=w, iterations=gmn.iterations, zero_init_update=False)
    somp.normalize = False
    somp.phi_sigma = _zero_pad(somp.phi_sigma, gmn.phi_sigma, 8, [0, 2, 5],
                               list(range(n)) + list(range(2 * n, 3 * n)), mc)
    somp.psi_sigma = _zero_pad(somp.psi_sigma, gmn.psi_sigma, mc + 4,
                               list(range(mc)) + [mc + 1], list(range(w + n)), NODE_CHANNELS)
    return somp


def embed_egnn_in_gmn(egnn: EGNNParams, rng) -> SompParams:
    """Equivariant, unnormalized one-channel layer from ``make_gmn_params``
    running the distance layer's nets.  sigma_msg: phi_m on |x_r - x_s|^2, h_r,
    h_s, a SiLU layer [W_x0 | I | -I], then [phi_x(m), 0, 0, silu(m) - silu(-m)].
    sigma_upd: a block-diagonal SiLU layer over phi_v and phi_h, then V = (1, 1,
    phi_v, phi_v - 1) for (message, velocity) x (position, velocity) and phi_h."""
    w, n = egnn.msg_dim, egnn.n_scalar
    gmn = make_gmn_params(rng, n, hidden=egnn.phi_m.weights[0].shape[1], msg_channels=1,
                          msg_extra=w, iterations=egnn.iterations, normalize=False)
    (wm, *m_mid), (wx0, wx1), (bx0, bx1) = egnn.phi_m.weights, egnn.phi_x.weights, egnn.phi_x.biases
    first = np.zeros((6 + 2 * n, wm.shape[1]))
    first[[0, *range(6, 6 + 2 * n)]] = wm  # Gram entry (0, 0) of the triangle, then h_r, h_s
    eye = np.eye(w)
    out = np.zeros((wx1.shape[0] + 2 * w, 3 + w))
    out[: wx1.shape[0], :1] = wx1
    out[wx1.shape[0]:, 3:] = np.vstack([eye, -eye])
    gmn.phi_sigma = MLP(
        [first, *m_mid, np.hstack([wx0, eye, -eye]), out],
        [*egnn.phi_m.biases, np.append(bx0, np.zeros(2 * w)), np.append(bx1, np.zeros(2 + w))],
        [*egnn.phi_m.activations, "silu", "linear"],
    )
    (wv0, wv1), (bv0, bv1) = egnn.phi_v.weights, egnn.phi_v.biases
    (wh0, wh1), (bh0, bh1) = egnn.phi_h.weights, egnn.phi_h.biases
    hv, hh = wv0.shape[1], wh0.shape[1]
    first = np.zeros((3 + w + n, hv + hh))  # [Gram triangle, messages, h]
    first[3 + w:, :hv] = wv0
    first[3 + w:, hv:] = wh0[:n]
    first[3:3 + w, hv:] = wh0[n:]
    out = np.zeros((hv + hh, 4 + n))
    out[:hv, 2:4] = wv1
    out[hv:, 4:] = wh1
    gmn.psi_sigma = MLP(
        [first, out],
        [np.append(bv0, bh0), np.concatenate([[1.0, 1.0], bv1, bv1 - 1.0, bh1])],
        ["silu", "linear"],
    )
    return gmn


def reduction_suite(instances: int = 50, seed: int = 0) -> list[PropertyResult]:
    worst_gmn = 0.0
    worst_egnn = 0.0
    for k in range(instances):
        case_rng = np.random.default_rng(seed * 7919 + k)
        sys_ = _random_system(case_rng, n=8, objects=2)
        edges = build_edges(sys_, 0.9).merged
        feats = pool_objects(sys_)

        gmn = make_gmn_params(case_rng, 2, hidden=8, iterations=2,
                              zero_init_update=False, normalize=False)
        z_g, h_g = somp_forward(gmn, sys_.geometric_stack(), sys_.attrs, edges, gravity=GRAVITY)
        somp = embed_gmn_in_somp(gmn, case_rng)
        z_s, h_s = somp_forward(
            somp, sys_.geometric_stack(), sys_.attrs, edges,
            objects=feats, object_of=sys_.object_of, gravity=GRAVITY,
        )
        worst_gmn = max(
            worst_gmn,
            float(np.max(np.abs(z_s - z_g))),
            float(np.max(np.abs(h_s - h_g))),
        )

        egnn = make_egnn_params(case_rng, 2, hidden=8, iterations=2, zero_init_update=False)
        x_e, v_e, h_e = egnn_forward(
            egnn, sys_.positions, sys_.velocities, sys_.attrs, edges, gravity=GRAVITY
        )
        gmn_e = embed_egnn_in_gmn(egnn, case_rng)
        z_m, h_m = somp_forward(gmn_e, sys_.geometric_stack(), sys_.attrs, edges, gravity=GRAVITY)
        worst_egnn = max(
            worst_egnn,
            float(np.max(np.abs(z_m[:, :, 0] - x_e))),
            float(np.max(np.abs(z_m[:, :, 1] - v_e))),
            float(np.max(np.abs(h_m - h_e))),
        )
    return [
        PropertyResult("embedded object-aware layer reproduces multichannel layer", worst_gmn,
                       1e-10, "max"),
        PropertyResult("embedded multichannel layer reproduces distance layer", worst_egnn,
                       1e-10, "max"),
    ]


# --------------------------------------------------- expressivity separation

def expressivity_separation(
    seed: int = 0,
    samples: int = 128,
    steps: int = 6000,
) -> tuple[float, float]:
    """Fit the constant vertical direction from purely horizontal stacks.

    Returns (gravity-augmented final loss, plain-scalarization residual
    fraction of the target norm).  The plain form can only produce outputs
    inside the horizontal span, so its residual cannot go below the full
    target norm; the augmented form can represent the target exactly.
    """
    rng = np.random.default_rng(seed)
    frame = np.stack(
        [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])], axis=1
    )
    zs = np.einsum("ab,nbm->nam", frame, rng.normal(size=(samples, 2, 2)))
    hs = rng.normal(size=(samples, 1))
    target = np.tile(GRAVITY.direction.reshape(1, 3, 1), (samples, 1, 1))

    # drawn on the square layout and folded, as the layer constructors draw
    sigma = fold_square_sigma(mlp_init(rng, [(2 + 1) ** 2 + 1, 32, (2 + 1) * 1]), (0, 1, 2), 1)
    eta = mlp_init(rng, [1, 8, 1])
    lr = 1e-2
    for step in range(steps):
        if step == steps // 2:
            lr = 1e-3
        if step == (3 * steps) // 4:
            lr = 1e-4
        tape = ad.Tape()
        out, _ = scalarize_subequivariant(
            tape.var(zs), tape.var(hs), sigma, eta, GRAVITY, out_channels=1, tape=tape
        )
        diff = ad.sub(out, target)
        loss = ad.div(ad.sum_(ad.mul(diff, diff)), float(target.size))
        grads = tape.backward(loss, np.array(1.0))
        for net in (sigma, eta):
            adam_step(net, mlp_grads(tape, grads, net), lr=lr)
    sub_loss = float(ad.value_of(loss))

    # best possible plain fit, solved per sample by least squares
    residual = 0.0
    for k in range(samples):
        z = zs[k]
        y, *_ = np.linalg.lstsq(z, target[k, :, 0], rcond=None)
        residual += float(np.linalg.norm(z @ y - target[k, :, 0]) ** 2)
    residual_fraction = np.sqrt(residual / samples) / np.linalg.norm(GRAVITY.direction)
    return sub_loss, float(residual_fraction)


SUITES = {
    "equivariance": equivariance_suite,
    "gradients": gradient_suite,
    "lemma5": lemma5_suite,
    "reduction": reduction_suite,
}


def run_suite(name: str, trials: int, seed: int) -> list[PropertyResult]:
    if trials < 1:
        raise ContractError("trials must be positive")
    if name == "all":
        out = []
        for key, fn in SUITES.items():
            out.extend(fn(trials if key != "lemma5" else max(trials, 1000), seed))
        return out
    if name not in SUITES:
        raise ContractError(f"unknown suite {name!r}")
    return SUITES[name](trials, seed)
