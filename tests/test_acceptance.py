"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (run with ``-s`` to
see them live).  Criterion 8 drives the CLI end to end on the desk-scale
protocol: 50 training scenes of three 27-particle cubes, 41 recorded frames
(40 transitions), two models trained with identical sample budgets, all
four ablation flags, and the rotated-versus-unrotated comparison.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from sgnn.cli import main
from sgnn.geometry import SubgroupTransform
from sgnn.model import make_sgnn_model
from sgnn.scenes import SceneConfig, generate_scene, load_trajectory
from sgnn.training import evaluate_single_step
from sgnn.verify import (
    equivariance_suite,
    expressivity_separation,
    gradient_suite,
    lemma5_suite,
    reduction_suite,
)

pytestmark = pytest.mark.acceptance


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# --------------------------------------------------------------- criteria 1-7

def test_criterion_1_subequivariance_suite():
    t0 = time.time()
    results = equivariance_suite(trials=200, seed=0)
    elapsed = time.time() - t0
    core = [r for r in results if "axis equivariance" in r.name]
    assert len(core) >= 3  # scalarization, layer, full model (plus baselines)
    worst = max(r.value for r in core)
    ok = all(r.passed for r in core) and elapsed < 60.0
    assert report(
        1, ok,
        f"axis-subgroup deviation {worst:.2e} < 1e-9 over 200 transforms "
        f"(scalarization, layer, full model; scalars invariant), {elapsed:.1f}s < 60s",
    )


def test_criterion_2_strictness_witnesses():
    results = equivariance_suite(trials=100, seed=1)
    by_name = {r.name: r for r in results}
    witness = by_name["full orthogonal symmetry broken (witness)"]
    egnn = by_name["egnn full orthogonal equivariance"]
    gmn = by_name["gmn full orthogonal equivariance"]
    ok = witness.passed and egnn.passed and gmn.passed
    assert report(
        2, ok,
        f"full model breaks full orthogonal symmetry by {witness.value:.2e} > 1e-3 "
        f"under a horizontal-axis rotation; egnn/gmn pass the full group at "
        f"{max(egnn.value, gmn.value):.2e} < 1e-9",
    )


def test_criterion_3_reduction():
    results = reduction_suite(instances=50, seed=0)
    worst = max(r.value for r in results)
    ok = all(r.passed for r in results)
    assert report(
        3, ok,
        f"weight-embedded reductions (object-aware -> multichannel -> distance layer) "
        f"match to {worst:.2e} < 1e-10 on 50 instances each",
    )


def test_criterion_4_witness_reconstruction():
    results = lemma5_suite(trials=1000, seed=0)
    recon = results[0]
    reject = results[1]
    ok = recon.passed and reject.passed
    assert report(
        4, ok,
        f"1000 construct-then-recover rounds: worst error {recon.value:.2e} < 1e-6; "
        f"mismatched-Gram inputs rejected ({reject.value:.0%})",
    )


def test_criterion_5_expressivity_separation():
    t0 = time.time()
    sub_loss, residual_fraction = expressivity_separation(seed=0)
    elapsed = time.time() - t0
    ok = sub_loss < 1e-6 and residual_fraction > 0.1 and elapsed < 300.0
    assert report(
        5, ok,
        f"gravity-augmented block fits the constant vertical target to "
        f"{sub_loss:.2e} < 1e-6; best plain-scalarization residual is "
        f"{residual_fraction:.2f} of the target norm (> 0.1); {elapsed:.0f}s < 5min",
    )


def test_criterion_6_gradient_suite():
    results = gradient_suite(instances=100, seed=0)
    worst = max(r.value for r in results)
    ok = all(r.passed for r in results)
    assert report(
        6, ok,
        f"finite-difference checks over 100 instances per layer variant "
        f"({len(results)} variants): worst relative error {worst:.2e} < 1e-4",
    )


def test_criterion_7_oracle_suite():
    # free fall against the integrator's closed form
    cfg = SceneConfig(objects=1, ground=False, frames=21, seed=2, drop_height=0.3)
    traj = generate_scene(cfg)
    z0 = traj.frames[0][:, 2]
    worst_fall = 0.0
    for t in range(traj.n_frames):
        n = t * cfg.record_every
        want = z0 - cfg.gravity * cfg.dt * cfg.dt * n * (n + 1) / 2.0
        worst_fall = max(worst_fall, float(np.abs(traj.frames[t][:, 2] - want).max()))

    # rigidity of every object across a contact-rich run
    traj3 = generate_scene(SceneConfig(objects=3, frames=41, seed=3))
    worst_rigid = 0.0
    for k in range(3):
        pts = traj3.frames[:, traj3.object_of == k, :]
        d0 = np.linalg.norm(pts[0][:, None] - pts[0][None, :], axis=2)
        for t in range(traj3.n_frames):
            dt_ = np.linalg.norm(pts[t][:, None] - pts[t][None, :], axis=2)
            worst_rigid = max(worst_rigid, float(np.abs(dt_ - d0).max()))

    # rotate-then-simulate equals simulate-then-rotate
    worst_comm = 0.0
    for seed in range(3):
        cfg3 = SceneConfig(objects=3, frames=41, seed=seed)
        base = generate_scene(cfg3)
        theta = 0.8 + seed
        c, s = np.cos(theta), np.sin(theta)
        O = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        t = np.array([0.3, -0.2, 0.0])
        moved = generate_scene(cfg3, ic_transform=SubgroupTransform(O=O, t=t))
        worst_comm = max(worst_comm, float(np.abs(moved.frames - (base.frames @ O.T + t)).max()))

    ok = worst_fall < 1e-11 and worst_rigid < 1e-10 and worst_comm < 1e-9
    assert report(
        7, ok,
        f"free fall matches the closed form to {worst_fall:.2e}; intra-object "
        f"distances constant to {worst_rigid:.2e} < 1e-10; axis-rotated initial "
        f"conditions commute to {worst_comm:.2e} < 1e-9",
    )


# ----------------------------------------------------------------- criterion 8

SCENE_KEYS = dict(objects=3, frames=41, push_speed=0.25, bias_angle=0.0,
                  drop_height=0.12, seed=0)
TRAIN_BUDGET = ["--epochs", "4", "--steps-per-epoch", "400", "--lr", "1e-3",
                "--decay-factor", "0.6", "--plateau-patience", "1",
                "--hidden", "32", "--iterations", "2", "--aggregate", "mean", "--seed", "0"]
# GNS reads no invariant message extras, and refuses the flag
EXTRA = {"sgnn": ["--msg-extra", "8"], "gns": []}
ABLATION_BUDGET = ["--epochs", "1", "--steps-per-epoch", "60", "--lr", "1e-3",
                   "--hidden", "16", "--iterations", "1", "--msg-extra", "4",
                   "--aggregate", "mean", "--seed", "0"]


def _write_scene_cfg(path: Path, **overrides) -> Path:
    keys = {**SCENE_KEYS, **overrides}
    path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    return path


def _read_metrics(path: Path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    """Generate data and train the two main models once for criteria 8/9."""
    root = tmp_path_factory.mktemp("acceptance")
    cfg = _write_scene_cfg(root / "scene.cfg")
    train_dir = root / "train"
    test_dir = root / "test"
    assert main(["generate", "--config", str(cfg), "--count", "50",
                 "--out", str(train_dir)]) == 0
    assert main(["generate", "--config", str(cfg), "--count", "12", "--seed", "1000",
                 "--out", str(test_dir)]) == 0

    budgets = {}
    for variant in ("sgnn", "gns"):
        ckpt = root / f"{variant}.sgnn"
        t0 = time.time()
        assert main(["train", variant, "--data", str(train_dir),
                     "--out", str(ckpt)] + TRAIN_BUDGET + EXTRA[variant]) == 0
        budgets[variant] = time.time() - t0
        out = root / f"eval_{variant}"
        assert main(["eval", str(ckpt), "--data", str(test_dir),
                     "--horizons", "10,20,40", "--rotate-test", "random",
                     "--rigid", "--seed", "7", "--out", str(out)]) == 0
    return dict(root=root, train_dir=train_dir, test_dir=test_dir, budgets=budgets)


def test_criterion_8_rotation_generalization(experiment):
    root = experiment["root"]
    budgets = experiment["budgets"]

    sgnn_rows = _read_metrics(root / "eval_sgnn" / "metrics.csv")
    gns_rows = _read_metrics(root / "eval_gns" / "metrics.csv")

    # rotated and unrotated columns agree per trajectory for the equivariant model
    per_traj = _read_metrics(root / "eval_sgnn" / "per_trajectory.csv")
    worst_gap = 0.0
    for row in per_traj:
        for h in (10, 20, 40):
            worst_gap = max(worst_gap, abs(float(row[f"mse_t{h}"]) -
                                           float(row[f"mse_t{h}_rotated"])))

    sgnn_t40 = float(sgnn_rows[-1]["mse_mean"])
    gns_t40_rot = float(gns_rows[-1]["mse_mean_rotated"])
    gns_gap = float(gns_rows[-1]["gap"])

    ok = (
        worst_gap < 1e-7
        and sgnn_t40 < gns_t40_rot
        and budgets["sgnn"] < 600.0
        and budgets["gns"] < 600.0
    )
    assert report(
        8, ok,
        f"rotated-vs-unrotated agreement {worst_gap:.2e} < 1e-7 per trajectory; "
        f"sgnn t=40 rollout MSE {sgnn_t40:.3e} beats gns rotated-test "
        f"{gns_t40_rot:.3e} (gns rotation gap {gns_gap:.2e}); budgets "
        f"{budgets['sgnn']:.0f}s / {budgets['gns']:.0f}s < 600s each; contact accuracy "
        f"sgnn {sgnn_rows[-1]['contact_accuracy']} / gns {gns_rows[-1]['contact_accuracy']} "
        f"(reported only)",
    )


def test_criterion_8_training_improvement(experiment):
    """Companion check: validation loss versus the untrained baseline.

    The improvement threshold is pinned from the first verified run of this
    protocol (5.6x at this budget; the per-frame median improves >10x but
    impact frames dominate the mean), asserted at 4x to absorb seed noise.
    """
    root = experiment["root"]
    with open(root / "sgnn.sgnn.history.csv") as f:
        rows = list(csv.DictReader(f))
    best_val = min(float(r["val_loss"]) for r in rows)

    trajs = [load_trajectory(p) for p in sorted(experiment["train_dir"].glob("*.sgtj"))]
    untrained = make_sgnn_model(np.random.default_rng(0), trajs[0].attrs.shape[1],
                                hidden=32, iterations=2, cutoff=0.08)
    baseline = evaluate_single_step(untrained, trajs[45:])
    ratio = baseline / best_val
    ok = ratio >= 4.0
    assert report(
        8, ok,
        f"companion: best validation loss {best_val:.3e} is {ratio:.1f}x below the "
        f"untrained baseline {baseline:.3e} (pinned threshold 4x)",
    )


def test_criterion_8_ablations(experiment):
    root = experiment["root"]
    rows_by_flag = {}
    for flag in ("no-hierarchy", "no-object-aware", "no-edge-separation",
                 "full-equivariance"):
        ckpt = root / f"ablation_{flag}.sgnn"
        rc = main(["train", "sgnn", "--data", str(experiment["train_dir"]),
                   "--out", str(ckpt), f"--{flag}"] + ABLATION_BUDGET)
        assert rc == 0, flag
        out = root / f"eval_{flag}"
        rc = main(["eval", str(ckpt), "--data", str(experiment["test_dir"]),
                   "--horizons", "10,20,40", "--rigid", "--out", str(out)])
        assert rc == 0, flag
        rows = _read_metrics(out / "metrics.csv")
        assert len(rows) == 3 and set(rows[0]) >= {"horizon", "mse_mean", "mse_std",
                                                   "contact_accuracy"}
        rows_by_flag[flag] = float(rows[-1]["mse_mean"])
    ok = all(np.isfinite(v) for v in rows_by_flag.values())
    detail = ", ".join(f"{k}: t40={v:.2e}" for k, v in rows_by_flag.items())
    assert report(8, ok, f"ablations trained to completion with comparable rows ({detail})")


# ----------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(tmp_path):
    cfg = _write_scene_cfg(tmp_path / "scene.cfg", frames=10)
    short = ["--epochs", "1", "--steps-per-epoch", "8", "--hidden", "8",
             "--iterations", "1", "--msg-extra", "4", "--aggregate", "mean",
             "--seed", "0"]
    digests = []
    for tag in ("a", "b"):
        data = tmp_path / f"data_{tag}"
        assert main(["generate", "--config", str(cfg), "--count", "3",
                     "--out", str(data)]) == 0
        ckpt = tmp_path / f"model_{tag}.sgnn"
        assert main(["train", "sgnn", "--data", str(data), "--out", str(ckpt)] + short) == 0
        out = tmp_path / f"eval_{tag}"
        assert main(["eval", str(ckpt), "--data", str(data), "--horizons", "5,9",
                     "--rigid", "--out", str(out)]) == 0
        blob = b"".join((data / f"traj_{k:05d}.sgtj").read_bytes() for k in range(3))
        blob += ckpt.read_bytes()
        blob += (out / "metrics.csv").read_bytes()
        digests.append(blob)
    ok = digests[0] == digests[1]
    assert report(
        9, ok,
        "regenerate + retrain + re-evaluate with fixed seeds is bit-identical "
        f"({len(digests[0])} bytes compared)",
    )
