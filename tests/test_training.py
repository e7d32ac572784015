"""Training loop: loss semantics, scheduler, determinism, rotation robustness."""

import gc
import weakref

import numpy as np
import pytest

from sgnn import ad, training
from sgnn.baselines import BASELINE_VARIANTS, make_baseline
from sgnn.errors import ContractError
from sgnn.graph import build_edges
from sgnn.model import make_sgnn_model
from sgnn.scenes import SceneConfig, Trajectory, generate_scene, rollout_mse
from sgnn.training import (
    TrainConfig,
    evaluate,
    evaluate_single_step,
    train,
    write_history_csv,
)


def static_trajectories(n=3, frames=8):
    return [generate_scene(SceneConfig(objects=1, frames=frames, seed=s, drop_height=0.0))
            for s in range(n)]


def falling_trajectories(n=4, frames=12, objects=2):
    return [generate_scene(SceneConfig(objects=objects, frames=frames, seed=s))
            for s in range(n)]


def small_model(seed=0, n_scalar=2, aggregate="mean"):
    model = make_sgnn_model(np.random.default_rng(seed), n_scalar, hidden=12,
                            iterations=1, msg_extra=4, cutoff=0.08)
    for st in (model.stage1, model.stage2, model.stage3):
        st.aggregate = aggregate
    return model


def test_exact_model_has_vanishing_loss():
    # a static scene is reproduced exactly by the residual-identity init
    trajs = static_trajectories(1)
    model = small_model()
    loss = evaluate_single_step(model, trajs)
    assert loss < 1e-20


@pytest.mark.parametrize("kind", ["sgnn", "gns"])
def test_no_tape_survives_training_without_cyclic_gc(kind, monkeypatch):
    # a swept tape must be freed by reference counting alone: with the cyclic
    # collector off, a reference cycle would keep every sample's tape alive
    trajs = falling_trajectories(2, frames=6)
    model = small_model() if kind == "sgnn" else make_baseline(
        "gns", np.random.default_rng(0), 2, hidden=12, iterations=1, cutoff=0.08)
    tapes = []
    init = ad.Tape.__init__

    def tracked_init(self):
        init(self)
        tapes.append(weakref.ref(self))

    monkeypatch.setattr(ad.Tape, "__init__", tracked_init)
    gc.collect()
    gc.disable()
    try:
        train(model, trajs, TrainConfig(lr=1e-4, max_epochs=1, seed=0, max_steps_per_epoch=4))
        alive = sum(ref() is not None for ref in tapes)
    finally:
        gc.enable()
    assert len(tapes) == 4
    assert alive == 0



def test_no_grads_survive_into_the_next_backward(monkeypatch):
    # a sample's adjoint table must be freed once its gradients are added
    # into the accumulator, not kept through the next sample's passes
    trajs = falling_trajectories(2, frames=6)
    grads = []
    live_at_backward = []
    init = ad.Grads.__init__
    backward = ad.Tape.backward

    def tracked_init(self, table):
        init(self, table)
        grads.append(weakref.ref(self))

    def checked_backward(self, *args, **kwargs):
        live_at_backward.append(sum(ref() is not None for ref in grads))
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(ad.Grads, "__init__", tracked_init)
    monkeypatch.setattr(ad.Tape, "backward", checked_backward)
    gc.collect()
    gc.disable()
    try:
        train(small_model(), trajs, TrainConfig(lr=1e-4, max_epochs=1, seed=0,
                                                max_steps_per_epoch=2, batch_size=2))
    finally:
        gc.enable()
    assert len(grads) == 4
    assert live_at_backward == [0] * 4


@pytest.mark.parametrize("variant", ("sgnn",) + BASELINE_VARIANTS)
def test_training_without_edges_takes_zero_gradients(variant):
    # a cutoff below the lattice spacing leaves every sample without edges:
    # the loss reaches no parameter, so each Adam step leaves them unchanged
    trajs = static_trajectories(2, frames=4)
    rng = np.random.default_rng(0)
    if variant == "sgnn":
        model = make_sgnn_model(rng, 2, hidden=8, iterations=1, msg_extra=4, cutoff=0.001)
    else:
        model = make_baseline(variant, rng, 2, hidden=8, iterations=1, cutoff=0.001)
    before = [p.copy() for net in model.mlps() for p in net.parameters()]
    _, history = train(model, trajs, TrainConfig(max_epochs=1, max_steps_per_epoch=2))
    assert np.isfinite(history[0].train_loss)
    after = [p for net in model.mlps() for p in net.parameters()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_sgnn_sample_tape_record_budget():
    """One SGNN training sample at the criterion-8 model config records at
    most 210 tape entries (210).  It recorded 377 before the frame's inputs
    were kept off the tape and each node's object offset was built once per
    iteration, 293 while each ``ominus`` took six records, 267 while each
    mean aggregation took two, 255 while each dense layer took one (an MLP
    takes one now), 222 while the object-aware edge stack took six
    records and repeated two channels (five now, and each distinct channel
    has its own rows and columns in the message network's weights), and 221
    while each of the 11 scalarizations reshaped its square Gram (each sigma
    stores first-layer rows for the Gram triangle and reads it now)."""
    traj = generate_scene(SceneConfig(objects=3, frames=12, push_speed=0.25,
                                      drop_height=0.12, seed=0))
    model = make_sgnn_model(np.random.default_rng(0), traj.attrs.shape[1], hidden=32,
                            iterations=2, msg_extra=8, cutoff=0.08)
    for st in (model.stage1, model.stage2, model.stage3):
        st.aggregate = "mean"
    system = traj.system_at(10)
    edges = build_edges(system, model.cutoff)
    assert edges.obj.shape[0] > 0  # all three stages run
    tape = ad.Tape()
    pred = model.predict(system, edges, tape=tape)
    diff = ad.sub(pred, traj.frames[11])
    ad.div(ad.sum_(ad.mul(diff, diff)), float(system.n_particles))
    assert len(tape._records) <= 210


def test_frozen_model_loss_equals_mean_rollout_mse():
    trajs = falling_trajectories(2)
    model = small_model()
    total, count = 0.0, 0
    for traj in trajs:
        for t in range(1, traj.n_frames - 1):
            sys_ = traj.system_at(t)
            pred = model.predict(sys_)
            frames = traj.frames.copy()
            frames[t + 1] = pred
            pred_traj = Trajectory(
                frames=frames, object_of=traj.object_of, attrs=traj.attrs, dt=traj.dt,
            )
            total += rollout_mse(pred_traj, traj, t + 1)
            count += 1
    want = total / count
    got = evaluate_single_step(model, trajs)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_training_reduces_validation_loss():
    trajs = falling_trajectories(6, frames=10)
    model = small_model()
    before = evaluate_single_step(model, trajs[-1:])
    cfg = TrainConfig(lr=5e-4, max_epochs=2, seed=0, max_steps_per_epoch=40)
    best, history = train(model, trajs, cfg)
    after = evaluate_single_step(best, trajs[-1:])
    assert after < before
    assert len(history) == 2


def test_noise_never_touches_targets_or_validation():
    # falling cubes: the velocity std that scales the noise is not zero
    trajs = falling_trajectories(3, frames=8)

    def first_epoch(noise_scale):
        cfg = TrainConfig(lr=0.0, max_epochs=1, seed=1, noise_scale=noise_scale)
        return train(small_model(), trajs, cfg)[1][0]

    clean, noised = first_epoch(0.0), first_epoch(0.3)
    # training inputs are noised, but validation reads the clean frames
    assert noised.train_loss != clean.train_loss
    assert noised.val_loss == clean.val_loss


def test_scheduler_decays_and_never_increases():
    trajs = static_trajectories(3, frames=6)
    model = small_model(seed=2)
    cfg = TrainConfig(lr=1e-19, max_epochs=15, seed=2, plateau_patience=2,
                      decay_factor=0.8, early_stop_patience=10, noise_scale=0.0)
    _, history = train(model, trajs, cfg)
    lrs = [row.lr for row in history]
    assert all(b <= a + 1e-30 for a, b in zip(lrs, lrs[1:]))
    assert lrs[-1] < lrs[0]
    # early stopping bounded the epoch count
    assert len(history) <= 11


def test_training_is_bit_deterministic():
    trajs = falling_trajectories(4, frames=8)

    def run():
        model = small_model(seed=3)
        cfg = TrainConfig(lr=3e-4, max_epochs=1, seed=3, max_steps_per_epoch=10)
        best, history = train(model, trajs, cfg)
        return best, history

    a, ha = run()
    b, hb = run()
    for pa, pb in zip(a.mlps(), b.mlps()):
        for wa, wb in zip(pa.parameters(), pb.parameters()):
            assert np.array_equal(wa, wb)
    assert [r.val_loss for r in ha] == [r.val_loss for r in hb]


def test_history_csv_schema(tmp_path):
    trajs = static_trajectories(2, frames=5)
    model = small_model(seed=4)
    _, history = train(model, trajs, TrainConfig(lr=1e-5, max_epochs=2, seed=0))
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert len(lines) == len(history) + 1


@pytest.mark.parametrize("key,value", [
    ("batch_size", 0), ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
    ("noise_scale", -0.1), ("noise_scale", float("nan")), ("noise_scale", float("inf")),
    ("velocity_input_scale", 0.0), ("velocity_input_scale", float("nan")),
    ("velocity_input_scale", float("inf")), ("max_steps_per_epoch", 0),
    ("seed", -1),  # used to fail inside numpy's generator, naming no key
])
def test_config_rejects_values_that_cannot_train(key, value):
    with pytest.raises(ContractError, match=key):
        TrainConfig(**{key: value})


def test_train_requires_frames():
    with pytest.raises(ContractError):
        train(small_model(), [], TrainConfig())


# ------------------------------------------------------------------ evaluate

def test_evaluate_static_scene_zero_mse_full_accuracy():
    trajs = static_trajectories(2, frames=8)
    model = small_model(seed=5, n_scalar=2)
    report = evaluate(model, trajs, [3, 7])
    assert [row["horizon"] for row in report["rows"]] == [3, 7]
    for row in report["rows"]:
        assert row["mse_mean"] < 1e-24
    assert report["per_trajectory"].shape == (2, 2)


def test_evaluate_constant_model_free_fall_matches_analytic():
    cfg = SceneConfig(objects=1, ground=False, frames=12, seed=6, drop_height=0.5)
    traj = generate_scene(cfg)
    model = small_model(seed=6)  # residual identity: predicts constant positions
    h = 10
    report = evaluate(model, [traj], [h])
    # displacement of the discrete free fall between frames 1 and h
    g, dt, every = cfg.gravity, cfg.dt, cfg.record_every
    def z_drop(frame):
        n = frame * every
        return g * dt * dt * n * (n + 1) / 2.0
    want = (z_drop(h) - z_drop(1) - 0.0) ** 2  # pure vertical offset, squared
    got = report["rows"][0]["mse_mean"]
    # the constant model also misses the initial-velocity carry; compare
    # against the exact per-particle displacement instead of the leading term
    diff = traj.frames[h] - traj.frames[1]
    exact = float((diff ** 2).sum(axis=1).mean())
    np.testing.assert_allclose(got, exact, rtol=1e-12)
    assert abs(got - want) / want < 0.25  # analytic leading term dominates


def test_evaluate_rejects_long_horizon():
    trajs = static_trajectories(1, frames=5)
    with pytest.raises(ContractError):
        evaluate(small_model(), trajs, [10])


@pytest.mark.parametrize("horizons", [[-1, 3], [0], [3, -2]])
def test_evaluate_rejects_horizon_below_one_before_any_rollout(monkeypatch, horizons):
    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before checking the horizons")

    monkeypatch.setattr(training, "rollout", no_rollout)
    low = min(horizons)
    with pytest.raises(ContractError, match=f"horizon {low} is below 1"):
        evaluate(small_model(), static_trajectories(1, frames=5), horizons)


def test_evaluate_mixed_object_counts_need_contact_pairs():
    trajs = static_trajectories(1, frames=5) + falling_trajectories(1, frames=5, objects=2)
    with pytest.raises(ContractError):
        evaluate(small_model(), trajs, [3])
    report = evaluate(small_model(), trajs, [3], contact_pairs=[])
    assert np.isnan(report["rows"][0]["contact_accuracy"])


class _JitteredConstantVelocity:
    """Constant-velocity predictions plus a fixed per-particle jitter of up
    to 0.02, so rigid fits leave particles more than 0.01 away."""

    cutoff = 0.08

    def predict(self, system, edges):
        jitter = 0.02 * np.sin(np.arange(system.positions.size)).reshape(-1, 3)
        return system.positions + system.velocities + jitter


def test_evaluate_seed_has_no_effect():
    trajs = falling_trajectories(2, frames=8)
    a = evaluate(_JitteredConstantVelocity(), trajs, [3, 6], rigid=True, seed=0)
    b = evaluate(_JitteredConstantVelocity(), trajs, [3, 6], rigid=True, seed=9)
    assert a["per_trajectory"].tobytes() == b["per_trajectory"].tobytes()


def test_rotation_robustness_of_trained_model():
    trajs = falling_trajectories(5, frames=8)
    model = small_model(seed=7)
    cfg = TrainConfig(lr=3e-4, max_epochs=1, seed=7, max_steps_per_epoch=15)
    best, _ = train(model, trajs, cfg)
    rng = np.random.default_rng(8)
    angles = list(rng.uniform(0, 2 * np.pi, size=2))
    plain = evaluate(best, trajs[:2], [4, 7])
    rot = evaluate(best, trajs[:2], [4, 7], rotate_angles=angles)
    gap = np.abs(plain["per_trajectory"] - rot["per_trajectory"]).max()
    assert gap < 1e-7

    gns = make_baseline("gns", np.random.default_rng(9), 2, hidden=12, iterations=2,
                        cutoff=0.08, zero_init_update=False)
    gns.params.aggregate = "mean"
    plain_g = evaluate(gns, trajs[:2], [4, 7])
    rot_g = evaluate(gns, trajs[:2], [4, 7], rotate_angles=angles)
    gap_g = np.abs(plain_g["per_trajectory"] - rot_g["per_trajectory"]).max()
    assert np.isfinite(gap_g)  # reported, not asserted against a threshold


def test_batch_accumulation_runs_and_is_deterministic():
    trajs = falling_trajectories(4, frames=8)

    def run():
        model = small_model(seed=11)
        cfg = TrainConfig(lr=3e-4, max_epochs=1, seed=11, batch_size=4,
                          max_steps_per_epoch=3)
        best, history = train(model, trajs, cfg)
        return best

    a, b = run(), run()
    for pa, pb in zip(a.mlps(), b.mlps()):
        for wa, wb in zip(pa.parameters(), pb.parameters()):
            assert np.array_equal(wa, wb)
