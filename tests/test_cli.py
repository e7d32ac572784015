"""CLI surface: exit codes, reproducibility, file outputs."""

import json
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from sgnn.checkpoint import read_tensors
from sgnn.cli import build_parser, main
from sgnn.modelio import load_model
from sgnn.scenes import TRAJ_MAGIC, TRAJ_VERSION, load_trajectory
from sgnn.training import TrainConfig


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


@pytest.mark.parametrize("lines, argv, message", [
    (["objects=abc"], [], "line 1: objects='abc' is not an integer"),
    (["frames=1e3"], [], "line 1: frames='1e3' is not an integer"),
    (["ground=maybe"], [], "line 1: ground='maybe' is not a boolean"),
    (["objects=2", "objects=3"], [], "line 2: repeated key 'objects'"),
    (["seed=-1"], [], "seed must be >= 0"),
    (["objects=2"], ["--seed", "-1"], "seed must be >= 0"),
], ids=["int", "int-exponent", "bool", "repeated-key", "config-seed", "seed-flag"])
def test_generate_rejects_a_malformed_config_or_seed_and_writes_nothing(tmp_path, capsys,
                                                                         lines, argv, message):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_generate_rejects_a_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "out"
    assert main(["generate", "--count", count, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --count must be >= 1")
    assert not out.exists()


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
    # only the sgnn and gmn variants read --msg-extra; the others refuse it
    reads = variant in ("sgnn", "gmn", "gmn_s")
    return [
        "train", variant, "--data", str(data), "--out", str(out),
        "--hidden", "8", "--iterations", "1", *(["--msg-extra", "4"] if reads else []),
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


def test_train_flags_keep_their_spelling_and_fill_every_train_config_field():
    flags = {"--lr": "0.5", "--epochs": "2", "--steps-per-epoch": "3", "--batch-size": "4",
             "--noise": "0.25", "--plateau-patience": "5", "--decay-factor": "0.5",
             "--early-stop": "6", "--velocity-input-scale": "0.125", "--seed": "7"}
    parser = build_parser()
    base = ["train", "sgnn", "--data", "d", "--out", "o"]
    given = parser.parse_args(base + [word for pair in flags.items() for word in pair])
    assert TrainConfig(**{f.name: getattr(given, f.name) for f in fields(TrainConfig)}) == \
        TrainConfig(lr=0.5, max_epochs=2, max_steps_per_epoch=3, batch_size=4, noise_scale=0.25,
                    plateau_patience=5, decay_factor=0.5, early_stop_patience=6,
                    velocity_input_scale=0.125, seed=7)
    defaults = parser.parse_args(base)
    assert all(getattr(defaults, f.name) == f.default for f in fields(TrainConfig))


def test_ablation_flags_reject_baselines(tiny_dataset, tmp_path):
    rc = main(_train_args(tiny_dataset, tmp_path / "x.sgnn", variant="gns",
                          extra=["--no-hierarchy"]))
    assert rc == 1


@pytest.mark.parametrize("variant", ["gmn", "gmn_s"])
def test_gmn_header_records_the_msg_extra_given(tiny_dataset, tmp_path, variant):
    ckpt = tmp_path / "gmn.sgnn"
    assert main(_train_args(tiny_dataset, ckpt, variant=variant, extra=["--msg-extra", "3"])) == 0
    raw = read_tensors(ckpt)["header/config_utf8"].reshape(-1)
    assert json.loads(bytes(raw.astype(np.uint8)))["params"]["msg_extra"] == 3
    assert load_model(ckpt).params.msg_extra == 3


@pytest.mark.parametrize("variant", ["gns", "egnn", "egnn_s"])
def test_msg_extra_is_refused_for_models_that_never_read_it(tiny_dataset, tmp_path, capsys,
                                                            variant):
    ckpt = tmp_path / "x.sgnn"
    assert main(_train_args(tiny_dataset, ckpt, variant=variant,
                            extra=["--msg-extra", "4"])) == 1
    assert "error: --msg-extra applies to the sgnn, gmn and gmn_s" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("flag,value,key", [
    ("--batch-size", "0", "batch_size"), ("--lr", "-1", "lr"), ("--noise", "nan", "noise_scale"),
    ("--cutoff", "nan", "cutoff"), ("--hidden", "0", "dim"),
    ("--cutoff", "inf", "--cutoff must be finite and > 0"), ("--epochs", "-1", "max_epochs"),
    ("--epochs", "0", "max_epochs"), ("--iterations", "0", "iterations"),
    ("--iterations", "-3", "iterations"),
    # each used to escape as numpy's ValueError, or name no flag
    ("--seed", "-1", "seed must be >= 0"), ("--init-seed", "-2", "--init-seed must be >= 0"),
    ("--msg-extra", "-1", "msg_extra must be >= 0"),
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


@pytest.mark.parametrize("horizons", ["", ",", "3,3"])
def test_eval_rejects_an_empty_or_repeated_horizon_list_before_loading(tmp_path, capsys,
                                                                       horizons):
    # the checkpoint does not exist: the horizons are checked first
    out = tmp_path / "eval"
    assert main(["eval", str(tmp_path / "missing.sgnn"), "--data", str(tmp_path),
                 "--horizons", horizons, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --horizons") and repr(horizons) in err
    assert not out.exists()


@pytest.mark.parametrize("angle", ["abc", "nan", "inf"])
def test_eval_rejects_a_rotation_that_is_not_a_finite_angle_before_loading(tmp_path, capsys,
                                                                           angle):
    # the checkpoint does not exist: the rotation is checked first
    assert main(["eval", str(tmp_path / "missing.sgnn"), "--data", str(tmp_path),
                 "--rotate-test", angle, "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --rotate-test") and repr(angle) in err


def test_eval_rejects_a_negative_seed_before_loading(tmp_path, capsys):
    # the checkpoint does not exist: the seed is checked first
    out = tmp_path / "eval"
    assert main(["eval", str(tmp_path / "missing.sgnn"), "--data", str(tmp_path),
                 "--rotate-test", "random", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --seed must be >= 0, got -1")
    assert not out.exists()


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


@pytest.fixture(scope="module")
def tiny_checkpoint(tiny_dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("cli_model") / "model.sgnn"
    assert main(_train_args(tiny_dataset, ckpt)) == 0
    return ckpt


@pytest.mark.parametrize("threshold", ["nan", "-1", "0", "inf"])
def test_eval_rejects_a_contact_threshold_that_is_not_finite_and_positive(
        tiny_dataset, tiny_checkpoint, tmp_path, capsys, threshold):
    assert main(["eval", str(tiny_checkpoint), "--data", str(tiny_dataset), "--horizons", "3",
                 "--contact-threshold", threshold, "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: contact_threshold must be finite and > 0")


def _write_empty_trajectory(data):
    """A well-formed trajectory file of two frames and no particles."""
    data.mkdir()
    (data / "traj_00000.sgtj").write_bytes(
        TRAJ_MAGIC + struct.pack("<IIIdI", TRAJ_VERSION, 0, 2, 0.02, 2))


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_empty_trajectory_is_refused_with_an_error_line(tiny_checkpoint, tmp_path, capsys,
                                                           command):
    empty = tmp_path / "empty"
    _write_empty_trajectory(empty)
    argv = (_train_args(empty, tmp_path / "model.sgnn") if command == "train" else
            ["eval", str(tiny_checkpoint), "--data", str(empty), "--horizons", "1",
             "--out", str(tmp_path / "eval")])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: a trajectory needs at least one particle")


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
