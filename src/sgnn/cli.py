"""Command-line surface: scene generation, training, evaluation, and the
property verification harness.

Every command echoes its full effective configuration as the first output
line, so any run is reproducible from its log.  Exit codes: 0 success, 1
verification or runtime failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .baselines import BASELINE_VARIANTS, make_baseline
from .errors import ContractError, SgnnError
from .model import make_sgnn_model
from .modelio import load_model, save_model
from .scenes import (
    SceneConfig,
    format_scene_config,
    generate_scene,
    load_trajectory,
    parse_scene_config,
    save_trajectory,
)
from .training import TrainConfig, evaluate, train, write_history_csv
from .verify import run_suite

VARIANTS = ("sgnn",) + BASELINE_VARIANTS
ABLATIONS = ("no_hierarchy", "no_object_aware", "no_edge_separation", "full_equivariance")


def _echo_config(command: str, values: dict) -> None:
    values = {k: v for k, v in values.items() if k not in ("fn", "command")}
    print(f"config {command} " + json.dumps(values, sort_keys=True, default=str), flush=True)


def cmd_generate(args) -> int:
    cfg = parse_scene_config(Path(args.config).read_text()) if args.config else SceneConfig()
    if args.seed is not None:
        cfg = SceneConfig(**{**cfg.__dict__, "seed": args.seed})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config("generate", {"config": format_scene_config(cfg).replace("\n", ";"),
                              "count": args.count, "out": str(out)})
    cfg_hash = hashlib.sha256(format_scene_config(cfg).encode()).hexdigest()

    names = []
    for k in range(args.count):
        traj = generate_scene(SceneConfig(**{**cfg.__dict__, "seed": cfg.seed + k}))
        names.append(f"traj_{k:05d}.sgtj")
        save_trajectory(traj, out / names[-1])
    manifest = out / "manifest.txt"
    with open(manifest, "w") as f:
        f.write(f"config_sha256={cfg_hash}\n")
        f.write(f"base_seed={cfg.seed}\n")
        for name in names:
            f.write(name + "\n")
    print(f"wrote {len(names)} trajectories and manifest to {out}")
    return 0


def _load_dir(data_dir: str):
    paths = sorted(Path(data_dir).glob("*.sgtj"))
    if not paths:
        raise SgnnError(f"no .sgtj trajectories under {data_dir}")
    return [load_trajectory(p) for p in paths]


def _build_model(variant: str, args, n_scalar: int):
    if not 0 < args.cutoff < np.inf:  # load_model accepts no other cutoff
        raise ContractError(f"--cutoff must be finite and > 0, got {args.cutoff}")
    rng = np.random.default_rng(args.init_seed)
    if variant == "sgnn":
        model = make_sgnn_model(
            rng, n_scalar,
            hidden=args.hidden, iterations=args.iterations,
            msg_channels=2, msg_extra=args.msg_extra, cutoff=args.cutoff,
            no_hierarchy=args.no_hierarchy,
            zero_object_features=args.no_object_aware,
            shared_edges=args.no_edge_separation,
            equivariant_only=args.full_equivariance,
        )
        stages = [model.stage1] + ([] if model.no_hierarchy else [model.stage2, model.stage3])
        for st in stages:
            st.aggregate = args.aggregate
        return model
    for flag in ABLATIONS:
        if getattr(args, flag):
            raise SgnnError(f"--{flag.replace('_', '-')} applies to the sgnn variant only")
    model = make_baseline(variant, rng, n_scalar, hidden=args.hidden,
                          iterations=args.iterations, cutoff=args.cutoff)
    model.params.aggregate = args.aggregate
    return model


def cmd_train(args) -> int:
    trajs = _load_dir(args.data)
    cfg = TrainConfig(
        lr=args.lr,
        plateau_patience=args.plateau_patience,
        decay_factor=args.decay_factor,
        early_stop_patience=args.early_stop,
        noise_scale=args.noise,
        noise_mode=args.noise_mode,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        seed=args.seed,
        max_steps_per_epoch=args.steps_per_epoch,
        velocity_input_scale=args.velocity_input_scale,
    )
    _echo_config("train", {**vars(args), "train_config": cfg.__dict__})
    model = _build_model(args.variant, args, trajs[0].attrs.shape[1])
    best, history = train(model, trajs, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, best)
    history_path = args.history or str(out) + ".history.csv"
    write_history_csv(history, history_path)
    print(f"checkpoint: {out}")
    print(f"history: {history_path}")
    if history:
        last = history[-1]
        print(f"final epoch {last.epoch}: train={last.train_loss:.6e} val={last.val_loss:.6e}")
    return 0


def cmd_eval(args) -> int:
    _echo_config("eval", vars(args))
    try:
        horizons = [int(h) for h in args.horizons.split(",") if h]
    except ValueError as err:  # names the token
        raise ContractError(f"--horizons: {err}") from None
    try:
        angle = None if args.rotate_test in (None, "random") else float(args.rotate_test)
    except ValueError:
        angle = np.nan
    if angle is not None and not np.isfinite(angle):
        raise ContractError(f"--rotate-test: {args.rotate_test!r} is neither 'random' nor a "
                            "finite angle in radians")
    model = load_model(args.checkpoint)
    trajs = _load_dir(args.data)
    rotate_angles = None
    if args.rotate_test == "random":
        rng = np.random.default_rng(args.seed)
        rotate_angles = list(rng.uniform(0.0, 2.0 * np.pi, size=len(trajs)))
    elif angle is not None:
        rotate_angles = [angle] * len(trajs)

    plain = evaluate(model, trajs, horizons, rigid=args.rigid,
                     contact_threshold=args.contact_threshold)
    rows = plain["rows"]
    header = ["horizon", "mse_mean", "mse_std", "contact_accuracy"]
    rotated = None
    if rotate_angles is not None:
        rotated = evaluate(model, trajs, horizons, rigid=args.rigid,
                           contact_threshold=args.contact_threshold,
                           rotate_angles=rotate_angles)
        header += ["mse_mean_rotated", "mse_std_rotated", "gap"]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics = out / "metrics.csv"
    with open(metrics, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for idx, row in enumerate(rows):
            line = [row["horizon"], f"{row['mse_mean']:.10e}", f"{row['mse_std']:.10e}",
                    f"{row['contact_accuracy']:.6f}"]
            if rotated is not None:
                rrow = rotated["rows"][idx]
                gap = abs(rrow["mse_mean"] - row["mse_mean"])
                line += [f"{rrow['mse_mean']:.10e}", f"{rrow['mse_std']:.10e}", f"{gap:.10e}"]
            writer.writerow(line)

    per_traj = out / "per_trajectory.csv"
    with open(per_traj, "w", newline="") as f:
        writer = csv.writer(f)
        cols = [f"mse_t{h}" for h in horizons]
        if rotated is not None:
            cols += [f"mse_t{h}_rotated" for h in horizons]
        writer.writerow(["trajectory"] + cols)
        for idx in range(len(trajs)):
            line = [idx] + [f"{v:.10e}" for v in plain["per_trajectory"][idx]]
            if rotated is not None:
                line += [f"{v:.10e}" for v in rotated["per_trajectory"][idx]]
            writer.writerow(line)

    for line in open(metrics):
        print(line.rstrip())
    print(f"metrics: {metrics}")
    return 0


def cmd_verify(args) -> int:
    _echo_config("verify", vars(args))
    if args.trials < 1:
        print("error: trials must be positive", file=sys.stderr)
        return 2
    results = run_suite(args.suite, args.trials, args.seed)
    failed = False
    for r in results:
        print(r.line())
        failed = failed or not r.passed
    if failed:
        print(f"FAILED (reproduce with --seed {args.seed})")
        return 1
    print("all properties hold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgnn",
        description="Gravity-aware particle simulation: data, training, evaluation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write oracle trajectories and a manifest")
    g.add_argument("--config", help="scene config file (key=value lines)")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=None, help="override the base seed")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="train a model variant on a trajectory directory")
    t.add_argument("variant", choices=VARIANTS)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--history", default=None, help="history CSV path")
    t.add_argument("--lr", type=float, default=1e-4)
    t.add_argument("--epochs", type=int, default=20)
    t.add_argument("--steps-per-epoch", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=1)
    t.add_argument("--noise", type=float, default=0.05)
    t.add_argument("--noise-mode", choices=("relative", "absolute"), default="relative")
    t.add_argument("--plateau-patience", type=int, default=3)
    t.add_argument("--decay-factor", type=float, default=0.8)
    t.add_argument("--early-stop", type=int, default=10)
    t.add_argument("--velocity-input-scale", type=float, default=0.03)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--init-seed", type=int, default=0)
    t.add_argument("--hidden", type=int, default=64)
    t.add_argument("--iterations", type=int, default=None)
    t.add_argument("--msg-extra", type=int, default=16)
    t.add_argument("--cutoff", type=float, default=0.08)
    t.add_argument("--aggregate", choices=("sum", "mean"), default="sum")
    t.add_argument("--no-hierarchy", action="store_true",
                   help="single flat message-passing stage over all edges")
    t.add_argument("--no-object-aware", action="store_true",
                   help="zero the pooled object features")
    t.add_argument("--no-edge-separation", action="store_true",
                   help="every stage uses the full edge set")
    t.add_argument("--full-equivariance", action="store_true",
                   help="drop the gravity augmentation (fully orthogonal scalarization)")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="rollout metrics for a checkpoint")
    e.add_argument("checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--horizons", default="10,20,40")
    e.add_argument("--rotate-test", default=None,
                   help="'random' or an angle in radians; adds rotated-test columns")
    e.add_argument("--rigid", action="store_true")
    e.add_argument("--contact-threshold", type=float, default=None)
    e.add_argument("--seed", type=int, default=0,
                   help="seed of the --rotate-test random angles")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    v = sub.add_parser("verify", help="run the property suites")
    v.add_argument("--suite", choices=("equivariance", "gradients", "lemma5", "reduction", "all"),
                   default="all")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "iterations", "missing") is None:
        args.iterations = 4 if args.variant == "sgnn" else 10
    try:
        return args.fn(args)
    except SgnnError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
