"""CLI surface: exit codes, reproducibility, file outputs."""

import subprocess
import sys

import numpy as np
import pytest

from sgnn.cli import main
from sgnn.modelio import load_model
from sgnn.scenes import load_trajectory


def write_scene_config(path, **overrides):
    base = dict(objects=2, frames=8, seed=3, lattice=2, cube_side=0.05)
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


def test_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "sgnn.cli", "--help"], capture_output=True
    )
    assert proc.returncode == 0
    assert b"generate" in proc.stdout


def test_unknown_flag_exits_two_and_writes_nothing(tmp_path):
    out = tmp_path / "nothing"
    proc = subprocess.run(
        [sys.executable, "-m", "sgnn.cli", "generate", "--out", str(out), "--frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert not out.exists()


def test_unknown_variant_exits_two(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sgnn.cli", "train", "warpdrive",
         "--data", str(tmp_path), "--out", str(tmp_path / "x.sgnn")],
        capture_output=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("bad", [dict(friction_smoothing=0.0), dict(record_every=0)])
def test_generate_rejects_invalid_config_values(tmp_path, bad):
    cfg = write_scene_config(tmp_path / "scene.cfg", **bad)
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not list(out.glob("*.sgtj"))


def test_generate_writes_files_and_manifest(tmp_path, capsys):
    cfg = write_scene_config(tmp_path / "scene.cfg")
    out = tmp_path / "data"
    rc = main(["generate", "--config", str(cfg), "--count", "2", "--out", str(out)])
    assert rc == 0
    echoed = capsys.readouterr().out.splitlines()[0]
    assert echoed.startswith("config generate ")
    files = sorted(p.name for p in out.glob("*.sgtj"))
    assert files == ["traj_00000.sgtj", "traj_00001.sgtj"]
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert manifest[0].startswith("config_sha256=")
    assert manifest[2:] == files
    for name in files:
        load_trajectory(out / name)


def test_generate_rerun_bit_identical(tmp_path):
    cfg = write_scene_config(tmp_path / "scene.cfg")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(cfg), "--count", "2", "--out", str(out1)]) == 0
    assert main(["generate", "--config", str(cfg), "--count", "2", "--out", str(out2)]) == 0
    for name in ("traj_00000.sgtj", "traj_00001.sgtj"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    cfg = write_scene_config(root / "scene.cfg", objects=2, frames=8, lattice=2)
    out = root / "data"
    assert main(["generate", "--config", str(cfg), "--count", "3", "--out", str(out)]) == 0
    return out


def _train_args(data, out, variant="sgnn", extra=()):
    return [
        "train", variant, "--data", str(data), "--out", str(out),
        "--hidden", "8", "--iterations", "1", "--msg-extra", "4",
        "--epochs", "1", "--steps-per-epoch", "5", "--lr", "1e-4",
        "--aggregate", "mean",
    ] + list(extra)


def test_train_writes_loadable_checkpoint(tiny_dataset, tmp_path):
    ckpt = tmp_path / "model.sgnn"
    assert main(_train_args(tiny_dataset, ckpt)) == 0
    model = load_model(ckpt)
    assert model.variant == "sgnn"
    history = (tmp_path / "model.sgnn.history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss,lr"
    assert len(history) == 2


def test_train_is_bit_deterministic(tiny_dataset, tmp_path):
    a, b = tmp_path / "a.sgnn", tmp_path / "b.sgnn"
    assert main(_train_args(tiny_dataset, a)) == 0
    assert main(_train_args(tiny_dataset, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_baseline_variant(tiny_dataset, tmp_path):
    ckpt = tmp_path / "gns.sgnn"
    assert main(_train_args(tiny_dataset, ckpt, variant="gns")) == 0
    assert load_model(ckpt).variant == "gns"


@pytest.mark.parametrize("argv", [
    ["gns"], ["egnn"], ["egnn_s"], ["gmn"], ["gmn_s"],
    ["sgnn", "--no-hierarchy"], ["sgnn", "--no-object-aware"],
    ["sgnn", "--no-edge-separation"], ["sgnn", "--full-equivariance"],
], ids=lambda argv: argv[-1].lstrip("-"))
def test_mean_aggregation_trains_and_evaluates(tiny_dataset, tmp_path, argv):
    ckpt = tmp_path / "model.sgnn"
    assert main(_train_args(tiny_dataset, ckpt, variant=argv[0], extra=argv[1:])) == 0
    out = tmp_path / "eval"
    assert main(["eval", str(ckpt), "--data", str(tiny_dataset), "--horizons", "3,7",
                 "--rigid", "--out", str(out)]) == 0
    for name in ("metrics.csv", "per_trajectory.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        values = [float(cell) for row in rows for cell in row.split(",")[1:]]
        assert rows and np.isfinite(values).all(), name


def test_ablation_flags_reject_baselines(tiny_dataset, tmp_path):
    rc = main(_train_args(tiny_dataset, tmp_path / "x.sgnn", variant="gns",
                          extra=["--no-hierarchy"]))
    assert rc == 1


@pytest.mark.parametrize("flag,value,key", [
    ("--batch-size", "0", "batch_size"), ("--lr", "-1", "lr"), ("--noise", "nan", "noise_scale"),
    ("--cutoff", "nan", "cutoff"), ("--hidden", "0", "dim"),
])
def test_train_rejects_invalid_values_with_an_error_line(tiny_dataset, tmp_path, capsys,
                                                         flag, value, key):
    ckpt = tmp_path / "x.sgnn"
    assert main(_train_args(tiny_dataset, ckpt, extra=[flag, value])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not ckpt.exists()


def test_eval_rejects_a_horizon_that_is_not_an_integer_before_loading(tmp_path, capsys):
    # the checkpoint does not exist: the horizons are checked first
    assert main(["eval", str(tmp_path / "missing.sgnn"), "--data", str(tmp_path),
                 "--horizons", "5,x", "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --horizons") and "'x'" in err


@pytest.mark.parametrize("angle", ["abc", "nan", "inf"])
def test_eval_rejects_a_rotation_that_is_not_a_finite_angle_before_loading(tmp_path, capsys,
                                                                           angle):
    # the checkpoint does not exist: the rotation is checked first
    assert main(["eval", str(tmp_path / "missing.sgnn"), "--data", str(tmp_path),
                 "--rotate-test", angle, "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --rotate-test") and repr(angle) in err


def test_eval_writes_metrics_with_rotation_columns(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.sgnn"
    assert main(_train_args(tiny_dataset, ckpt)) == 0
    out = tmp_path / "eval"
    rc = main([
        "eval", str(ckpt), "--data", str(tiny_dataset), "--horizons", "3,7",
        "--rotate-test", "random", "--rigid", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "horizon,mse_mean,mse_std,contact_accuracy,mse_mean_rotated,mse_std_rotated,gap"
    assert len(lines) == 3
    per_traj = (out / "per_trajectory.csv").read_text().splitlines()
    assert len(per_traj) == 4  # header + 3 trajectories
    # the trained model is axis-equivariant: rotated columns match unrotated
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[1]) - float(cells[4])) < 1e-7


def test_eval_checkpoint_mismatch_errors(tiny_dataset, tmp_path):
    bogus = tmp_path / "bogus.sgnn"
    bogus.write_bytes(b"SGNN" + b"\x01\x00\x00\x00" + b"\x00" * 8)
    rc = main(["eval", str(bogus), "--data", str(tiny_dataset), "--out", str(tmp_path / "e")])
    assert rc == 1


def test_verify_small_suites_pass(capsys):
    assert main(["verify", "--suite", "lemma5", "--trials", "50"]) == 0
    assert main(["verify", "--suite", "reduction", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_zero_trials_usage_error():
    assert main(["verify", "--trials", "0"]) == 2


@pytest.mark.acceptance
def test_generate_200_default_scenes_round_trip(tmp_path):
    out = tmp_path / "bulk"
    assert main(["generate", "--count", "200", "--out", str(out)]) == 0
    files = sorted(out.glob("*.sgtj"))
    assert len(files) == 200
    for path in files:
        traj = load_trajectory(path)
        assert traj.n_frames == 41 and traj.n_particles == 81
