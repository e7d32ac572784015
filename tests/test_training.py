"""Training loop: loss semantics, scheduler, determinism, rotation robustness."""

import numpy as np
import pytest

from sgnn.baselines import make_baseline
from sgnn.errors import ContractError
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
    trajs = static_trajectories(3)
    model = small_model()
    cfg = TrainConfig(lr=0.0, max_epochs=1, seed=1, noise_scale=0.3, noise_mode="absolute")
    best, history = train(model, trajs, cfg)
    # training inputs are noised (nonzero loss) but validation is clean
    assert history[0].train_loss > 1e-6
    assert history[0].val_loss < 1e-20


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


def test_evaluate_mixed_object_counts_need_contact_pairs():
    trajs = static_trajectories(1, frames=5) + falling_trajectories(1, frames=5, objects=2)
    with pytest.raises(ContractError):
        evaluate(small_model(), trajs, [3])
    report = evaluate(small_model(), trajs, [3], contact_pairs=[])
    assert np.isnan(report["rows"][0]["contact_accuracy"])


def test_rotation_robustness_of_trained_model():
    trajs = falling_trajectories(5, frames=8)
    model = small_model(seed=7)
    cfg = TrainConfig(lr=3e-4, max_epochs=1, seed=7, max_steps_per_epoch=15)
    best, _ = train(model, trajs, cfg)
    rng = np.random.default_rng(8)
    angles = list(rng.uniform(0, 2 * np.pi, size=2))
    plain = evaluate(best, trajs[:2], [4, 7], seed=1)
    rot = evaluate(best, trajs[:2], [4, 7], rotate_angles=angles, seed=1)
    gap = np.abs(plain["per_trajectory"] - rot["per_trajectory"]).max()
    assert gap < 1e-7

    gns = make_baseline("gns", np.random.default_rng(9), 2, hidden=12, iterations=2,
                        cutoff=0.08, zero_init_update=False)
    gns.params.aggregate = "mean"
    plain_g = evaluate(gns, trajs[:2], [4, 7], seed=1)
    rot_g = evaluate(gns, trajs[:2], [4, 7], rotate_angles=angles, seed=1)
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
