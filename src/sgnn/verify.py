"""Executable property suites: symmetry claims, gradient checks, witness
reconstruction, and the expressivity-ordering reductions.

Each suite returns a list of ``PropertyResult`` rows; the CLI prints them
and fails the process if any row fails.  The suites are also the backing
for the acceptance tests, so thresholds here are the authoritative ones.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import ad
from .baselines import (
    BaselineModel,
    GMNParams,
    egnn_forward,
    gmn_forward,
    gns_forward,
    make_baseline,
    make_egnn_params,
    make_gmn_params,
    make_gns_params,
)
from .errors import ContractError, GramMismatchError
from .geometry import (
    Gravity,
    check_equivariance,
    horizontal_axis_rotation,
    lemma5_witness,
    random_subgroup_transform,
    scalarize_subequivariant,
)
from .graph import ParticleSystem, build_edges, merged_particle_edges, pool_objects
from .layers import make_somp_params, masked_sigma, somp_forward
from .mlp import MLP, adam_step, mlp_forward, mlp_grads, mlp_init
from .model import make_sgnn_model, predict_step

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


def _system_fn_sgnn(model, object_of):
    def fn(geo, sca):
        z = geo[0]
        system = ParticleSystem(
            positions=z[:, :, 0], velocities=z[:, :, 1], attrs=sca[0], object_of=object_of
        )
        edges = build_edges(system, model.cutoff)
        return [predict_step(model, system, edges)[:, :, None]], []

    return fn


def _system_fn_baseline(model, object_of):
    def fn(geo, sca):
        z = geo[0]
        system = ParticleSystem(
            positions=z[:, :, 0], velocities=z[:, :, 1], attrs=sca[0], object_of=object_of
        )
        return [model.predict(system)[:, :, None]], []

    return fn


# ----------------------------------------------------------- equivariance

def equivariance_suite(trials: int = 200, seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    results = []

    # gravity-augmented scalarization commutes with the axis subgroup
    sigma = mlp_init(rng, [(2 + 1) ** 2 + 2, 16, (2 + 1) * 2])
    eta = mlp_init(rng, [2, 8, 1])
    z0 = rng.normal(size=(3, 2))
    h0 = rng.normal(size=2)

    def scal_fn(geo, sca):
        return [scalarize_subequivariant(geo[0], sca[0], GRAVITY, sigma, eta, out_channels=2)], []

    dev = check_equivariance(
        scal_fn, ([z0], [h0]), group="og3", trials=trials, seed=seed + 1,
        position_channels=[None], output_position_channels=[None],
    )
    results.append(PropertyResult("scalarization axis equivariance", dev, 1e-9, "max"))

    # one message-passing layer, axis subgroup plus translations
    params = make_somp_params(rng, 2, hidden=12, iterations=2, zero_init_update=False, msg_extra=4)
    sys0 = _random_system(rng)
    edges = merged_particle_edges(build_edges(sys0, 0.7))

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
        position_channels=[0], output_position_channels=[0],
    )
    results.append(PropertyResult("message passing axis equivariance", dev, 1e-9, "max"))

    # full hierarchical prediction, axis subgroup plus translations
    model = make_sgnn_model(
        rng, 2, hidden=16, iterations=2, zero_init_update=False,
        msg_channels=2, msg_extra=4, cutoff=0.5,
    )
    sys1 = _random_system(rng, n=12, objects=3)
    dev = check_equivariance(
        _system_fn_sgnn(model, sys1.object_of),
        ([sys1.geometric_stack()], [sys1.attrs]), group="og3",
        trials=trials, seed=seed + 3, translate=True,
        position_channels=[0], output_position_channels=[0],
    )
    results.append(PropertyResult("full model axis equivariance", dev, 1e-9, "max"))

    # strictness: a horizontal-axis rotation must break the full model
    witness_model = _nonzero_sgnn(np.random.default_rng(seed + 40))
    witness = 0.0
    wrng = np.random.default_rng(seed + 4)
    base = predict_step(witness_model, sys1, build_edges(sys1, witness_model.cutoff))
    for _ in range(20):
        O = horizontal_axis_rotation(wrng, GRAVITY)
        moved = ParticleSystem(
            positions=sys1.positions @ O.T, velocities=sys1.velocities @ O.T,
            attrs=sys1.attrs, object_of=sys1.object_of,
        )
        got = predict_step(witness_model, moved, build_edges(moved, witness_model.cutoff))
        witness = max(witness, float(np.max(np.abs(got - base @ O.T))))
    results.append(PropertyResult("full orthogonal symmetry broken (witness)", witness, 1e-3, "min"))

    # fully equivariant baselines pass the whole orthogonal group
    for variant in ("egnn", "gmn"):
        b = make_baseline(
            variant, np.random.default_rng(seed + 5), 2,
            hidden=12, iterations=2, zero_init_update=False, cutoff=0.5,
        )
        sys2 = _random_system(np.random.default_rng(seed + 6), n=8, objects=2)
        dev = check_equivariance(
            _system_fn_baseline(b, sys2.object_of),
            ([sys2.geometric_stack()], [sys2.attrs]), group="o3",
            trials=min(trials, 100), seed=seed + 7, translate=True,
            position_channels=[0], output_position_channels=[0],
        )
        results.append(PropertyResult(f"{variant} full orthogonal equivariance", dev, 1e-9, "max"))

    # gravity-adapted baselines: axis subgroup holds, full group broken
    for variant in ("egnn_s", "gmn_s"):
        b = make_baseline(
            variant, np.random.default_rng(seed + 8), 2,
            hidden=12, iterations=2, zero_init_update=False, cutoff=0.5,
        )
        sys3 = _random_system(np.random.default_rng(seed + 9), n=8, objects=2)
        dev = check_equivariance(
            _system_fn_baseline(b, sys3.object_of),
            ([sys3.geometric_stack()], [sys3.attrs]), group="og3",
            trials=min(trials, 100), seed=seed + 10, translate=True,
            position_channels=[0], output_position_channels=[0],
        )
        results.append(PropertyResult(f"{variant} axis equivariance", dev, 1e-9, "max"))
        witness = 0.0
        wrng = np.random.default_rng(seed + 11)
        base = b.predict(sys3)
        for _ in range(20):
            O = horizontal_axis_rotation(wrng, GRAVITY)
            moved = ParticleSystem(
                positions=sys3.positions @ O.T, velocities=sys3.velocities @ O.T,
                attrs=sys3.attrs, object_of=sys3.object_of,
            )
            witness = max(witness, float(np.max(np.abs(b.predict(moved) - base @ O.T))))
        results.append(
            PropertyResult(f"{variant} full orthogonal broken (witness)", witness, 1e-3, "min")
        )

    # non-equivariant baseline: a vertical-axis rotation already breaks it
    gns = make_baseline("gns", np.random.default_rng(seed + 12), 2, hidden=12, iterations=2,
                        zero_init_update=False, cutoff=0.5)
    for m in gns.mlps():
        m.weights[-1] *= 3.0
    sys4 = _random_system(np.random.default_rng(seed + 13), n=8, objects=2)
    witness = 0.0
    wrng = np.random.default_rng(seed + 14)
    base = gns.predict(sys4)
    for _ in range(20):
        O = random_subgroup_transform(wrng, GRAVITY).O
        moved = ParticleSystem(
            positions=sys4.positions @ O.T, velocities=sys4.velocities @ O.T,
            attrs=sys4.attrs, object_of=sys4.object_of,
        )
        witness = max(witness, float(np.max(np.abs(gns.predict(moved) - base @ O.T))))
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
    rng = np.random.default_rng(seed)
    results = []

    def somp_case(case_rng):
        params = make_somp_params(case_rng, 2, hidden=8, iterations=1,
                                  zero_init_update=False, msg_extra=4)
        sys_ = _random_system(case_rng, n=6, objects=2)
        feats = pool_objects(sys_)
        edges = merged_particle_edges(build_edges(sys_, 0.9))
        proj = case_rng.normal(size=(3, 2))

        def make_loss(tape):
            z, h = sys_.geometric_stack(), sys_.attrs
            if tape is not None:
                z, h = tape.var(z), tape.var(h)
            z2, _ = somp_forward(params, z, h, edges, objects=feats,
                                 object_of=sys_.object_of, gravity=GRAVITY, tape=tape)
            return ad.sum_(ad.mul(z2, proj))

        return make_loss, params.mlps()

    def baseline_case(variant):
        def build(case_rng):
            b = make_baseline(variant, case_rng, 2, hidden=8, iterations=1,
                              zero_init_update=False, cutoff=0.9, activation="silu")
            sys_ = _random_system(case_rng, n=6, objects=2)
            proj = case_rng.normal(size=(sys_.n_particles, 3))

            def make_loss(tape):
                out = b.predict(sys_, tape=tape)
                return ad.sum_(ad.mul(out, proj))

            return make_loss, b.mlps()

        return build

    def sgnn_case(case_rng):
        model = make_sgnn_model(case_rng, 2, hidden=8, iterations=1,
                                zero_init_update=False, msg_extra=4)
        sys_ = _random_system(case_rng, n=8, objects=2)
        edges = build_edges(sys_, 0.9)
        proj = case_rng.normal(size=(sys_.n_particles, 3))

        def make_loss(tape):
            out = predict_step(model, sys_, edges, tape=tape)
            return ad.sum_(ad.mul(out, proj))

        return make_loss, model.mlps()

    cases = [
        ("message passing layer", somp_case),
        ("full model", sgnn_case),
        ("gns", baseline_case("gns")),
        ("egnn", baseline_case("egnn")),
        ("egnn_s", baseline_case("egnn_s")),
        ("gmn", baseline_case("gmn")),
        ("gmn_s", baseline_case("gmn_s")),
    ]
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

def build_masked_somp_from_gmn(gmn: GMNParams, n_scalar: int, rng):
    """Object-aware layer whose mixing networks are masked wrappers of a
    plain multichannel layer: gravity and object channels are zeroed, so the
    forward collapses onto the smaller model exactly."""
    mc, w, n = gmn.msg_channels, gmn.msg_extra, n_scalar
    phi = masked_sigma(
        gmn.sigma_msg,
        keep_stack=[6, 7, 8],  # the pairwise block of the 9+1 channel stack
        full_channels=10,
        keep_scalars=list(range(n)) + list(range(2 * n, 3 * n)),
        out_channels=mc,
        extra_channels=w,
    )
    psi = masked_sigma(
        gmn.sigma_upd,
        keep_stack=list(range(mc)) + [mc + 1],  # messages plus own velocity
        full_channels=mc + 4,
        keep_scalars=list(range(w + n)),
        out_channels=2,
        extra_channels=n,
    )
    from .layers import SompParams

    return SompParams(
        phi_sigma=phi,
        phi_eta=mlp_init(rng, [4 * n, 4, 1]),
        psi_sigma=psi,
        psi_eta=mlp_init(rng, [w + 2 * n, 4, 1]),
        iterations=gmn.iterations,
        msg_channels=mc,
        msg_extra=w,
        n_scalar=n,
        use_objects=True,
        normalize=False,
        equivariant_only=False,
    )


def build_masked_gmn_from_egnn(egnn_params, n_scalar: int) -> GMNParams:
    """Multichannel layer reproducing the distance-scalarized layer: only the
    squared-distance Gram entry is read, the coordinate weight fills the
    pairwise-offset row, and the update recombines the aggregated message
    with the gated own velocity."""
    w, n = egnn_params.msg_dim, n_scalar

    def sigma_msg(x):
        xv = ad.value_of(x)
        b = xv.shape[0]
        d2 = xv[:, 0:1]  # entry (0, 0) of the raw 3x3 Gram
        hi = xv[:, 9 : 9 + n]
        hj = xv[:, 9 + n : 9 + 2 * n]
        m = ad.value_of(mlp_forward(egnn_params.phi_m, np.concatenate([d2, hi, hj], axis=-1)))
        xw = ad.value_of(mlp_forward(egnn_params.phi_x, m))
        zeros = np.zeros((b, 2))
        return np.concatenate([xw, zeros, m], axis=-1)

    def sigma_upd(x):
        xv = ad.value_of(x)
        b = xv.shape[0]
        sm = xv[:, 4 : 4 + w]
        hh = xv[:, 4 + w : 4 + w + n]
        phiv = ad.value_of(mlp_forward(egnn_params.phi_v, hh))
        ones = np.ones((b, 1))
        dh = ad.value_of(mlp_forward(egnn_params.phi_h, np.concatenate([hh, sm], axis=-1)))
        # V rows (message, velocity) x columns (position, velocity residual)
        return np.concatenate([ones, ones, phiv, phiv - 1.0, dh], axis=-1)

    return GMNParams(
        sigma_msg=sigma_msg,
        sigma_upd=sigma_upd,
        eta_msg=None,
        eta_upd=None,
        iterations=egnn_params.iterations,
        msg_channels=1,
        msg_extra=w,
        n_scalar=n,
        subequivariant=False,
        normalize=False,
    )


def reduction_suite(instances: int = 50, seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    worst_gmn = 0.0
    worst_egnn = 0.0
    for k in range(instances):
        case_rng = np.random.default_rng(seed * 7919 + k)
        sys_ = _random_system(case_rng, n=8, objects=2)
        edges = merged_particle_edges(build_edges(sys_, 0.9))
        feats = pool_objects(sys_)

        gmn = make_gmn_params(case_rng, 2, hidden=8, iterations=2,
                              zero_init_update=False, normalize=False)
        z_g, h_g = gmn_forward(gmn, sys_.geometric_stack(), sys_.attrs, edges, gravity=GRAVITY)
        somp = build_masked_somp_from_gmn(gmn, 2, case_rng)
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
        gmn_e = build_masked_gmn_from_egnn(egnn, 2)
        z_m, h_m = gmn_forward(gmn_e, sys_.geometric_stack(), sys_.attrs, edges, gravity=GRAVITY)
        worst_egnn = max(
            worst_egnn,
            float(np.max(np.abs(z_m[:, :, 0] - x_e))),
            float(np.max(np.abs(z_m[:, :, 1] - v_e))),
            float(np.max(np.abs(h_m - h_e))),
        )
    return [
        PropertyResult("masked object-aware layer reproduces multichannel layer", worst_gmn, 1e-10, "max"),
        PropertyResult("masked multichannel layer reproduces distance layer", worst_egnn, 1e-10, "max"),
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

    sigma = mlp_init(rng, [(2 + 1) ** 2 + 1, 32, (2 + 1) * 1])
    eta = mlp_init(rng, [1, 8, 1])
    lr = 1e-2
    for step in range(steps):
        if step == steps // 2:
            lr = 1e-3
        if step == (3 * steps) // 4:
            lr = 1e-4
        tape = ad.Tape()
        out = scalarize_subequivariant(
            tape.var(zs), tape.var(hs), GRAVITY, sigma, eta, out_channels=1, tape=tape
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
