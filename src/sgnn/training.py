"""Supervised next-frame training and rollout evaluation.

One sample is a (frame t, frame t+1) pair: the input system is frame t with
finite-difference velocities, Gaussian noise is added to the two positions
the input derives from (targets stay clean), the loss is the per-particle
squared position error of the prediction, and parameters take bias-corrected
Adam steps.  Validation tracks the clean single-step loss; the learning rate
decays on plateaus and training stops early when validation stalls.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass

import numpy as np

from . import ad
from .errors import ContractError, TrainingError
from .geometry import Gravity, sample_subgroup_transform
from .graph import ParticleSystem, build_edges
from .mlp import adam_step, mlp_grads
from .model import rollout
from .scenes import Trajectory, contact_accuracy, rollout_mse

# the last tenth of the trajectories (at least one of two or more) validates
VAL_FRACTION = 0.1


@dataclass
class TrainConfig:
    lr: float = 1e-4
    plateau_patience: int = 3
    decay_factor: float = 0.8
    early_stop_patience: int = 10
    noise_scale: float = 0.05
    noise_mode: str = "relative"  # x velocity std, or "absolute" in meters
    batch_size: int = 1
    max_epochs: int = 20
    seed: int = 0
    max_steps_per_epoch: int | None = None  # subsample for fixed budgets
    velocity_input_scale: float = 0.03  # velocity channels normalized to this RMS

    def __post_init__(self):
        if not 0.0 < self.decay_factor < 1.0:
            raise ContractError("decay factor must lie in (0, 1)")
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ContractError("patience values must be >= 1")
        if self.noise_mode not in ("relative", "absolute"):
            raise ContractError("noise_mode must be 'relative' or 'absolute'")
        for key in ("batch_size", "max_steps_per_epoch"):  # the latter may be None
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ContractError(f"{key} must be >= 1")
        for key in ("lr", "noise_scale"):  # an lr of 0 keeps the model frozen
            if not 0.0 <= getattr(self, key) < np.inf:
                raise ContractError(f"{key} must be finite and >= 0")
        if not 0.0 < self.velocity_input_scale < np.inf:
            raise ContractError("velocity_input_scale must be finite and > 0")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


def write_history_csv(history: list[EpochStats], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for row in history:
            writer.writerow([row.epoch, f"{row.train_loss:.10e}", f"{row.val_loss:.10e}", f"{row.lr:.10e}"])


def _samples(trajectories: list[Trajectory]) -> list[tuple[int, int]]:
    out = []
    for idx, traj in enumerate(trajectories):
        for t in range(1, traj.n_frames - 1):
            out.append((idx, t))
    return out


def _velocity_std(trajectories: list[Trajectory]) -> np.ndarray:
    diffs = [traj.frames[1:] - traj.frames[:-1] for traj in trajectories if traj.n_frames > 1]
    return np.concatenate(diffs).reshape(-1, 3).std(axis=0)


def _sample_loss(model, traj: Trajectory, t: int, noise_sigma, rng, tape):
    """Loss of predicting frame t+1 from frame t; noise on input positions
    only (velocities re-derived from the noised pair, targets clean)."""
    prev = traj.frames[t - 1]
    cur = traj.frames[t]
    if noise_sigma is not None:
        prev = prev + rng.normal(size=prev.shape) * noise_sigma
        cur = cur + rng.normal(size=cur.shape) * noise_sigma
    system = ParticleSystem(
        positions=cur, velocities=cur - prev, attrs=traj.attrs, object_of=traj.object_of
    )
    edges = build_edges(system, model.cutoff)
    pred = model.predict(system, edges, tape=tape)
    target = traj.frames[t + 1]
    diff = ad.sub(pred, target)
    return ad.div(ad.sum_(ad.mul(diff, diff)), float(target.shape[0]))


def train(model, trajectories: list[Trajectory], cfg: TrainConfig):
    """Train in place; returns (best-validation model copy, history)."""
    if not trajectories or all(t.n_frames < 2 for t in trajectories):
        raise ContractError("need at least one trajectory with two frames")
    rng = np.random.default_rng(cfg.seed)

    n_val = int(round(VAL_FRACTION * len(trajectories)))
    if len(trajectories) >= 2:
        n_val = max(n_val, 1)
    train_trajs = trajectories[: len(trajectories) - n_val] if n_val else trajectories
    val_trajs = trajectories[len(trajectories) - n_val :] if n_val else trajectories

    train_samples = _samples(train_trajs)
    val_samples = _samples(val_trajs)
    if not train_samples:
        raise ContractError("no trainable frame pairs")

    velocity_std = _velocity_std(train_trajs)
    noise_sigma = None
    if cfg.noise_scale > 0:
        if cfg.noise_mode == "relative":
            noise_sigma = cfg.noise_scale * velocity_std
        else:
            noise_sigma = np.full(3, cfg.noise_scale)

    # scalar input normalization for the velocity channel, fit once from the
    # training set (a per-axis scale would break the rotation symmetry)
    model.velocity_scale = max(
        float(velocity_std.mean()) / cfg.velocity_input_scale, 1e-12
    )

    mlps = model.mlps()
    lr = cfg.lr
    best_val = np.inf
    best_model = copy.deepcopy(model)
    stale = 0
    plateau = 0
    history: list[EpochStats] = []

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_samples))
        if cfg.max_steps_per_epoch is not None:
            order = order[: cfg.max_steps_per_epoch * cfg.batch_size]
        total = 0.0
        count = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            accum = [
                [np.zeros_like(p) for p in net.parameters()] for net in mlps
            ]
            batch_loss = 0.0
            for pick in batch:
                traj_idx, t = train_samples[pick]
                tape = ad.Tape()
                loss = _sample_loss(model, train_trajs[traj_idx], t, noise_sigma, rng, tape)
                value = float(ad.value_of(loss))
                if not np.isfinite(value):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, trajectory {traj_idx}, frame {t}"
                    )
                batch_loss += value
                # a loss that reaches no parameter (no edges) has zero gradients
                grads = (tape.backward(loss, np.array(1.0)) if isinstance(loss, ad.Var)
                         else ad.Grads({}))
                for net, acc in zip(mlps, accum):
                    for slot, g in zip(acc, mlp_grads(tape, grads, net)):
                        slot += g
                del grads  # not held through the next sample's forward and sweep
            scale = 1.0 / len(batch)
            for net, acc in zip(mlps, accum):
                adam_step(net, [g * scale for g in acc], lr=lr)
            total += batch_loss
            count += len(batch)
        train_loss = total / max(count, 1)

        val_loss = evaluate_single_step(model, val_trajs, val_samples)
        history.append(EpochStats(epoch=epoch, train_loss=train_loss, val_loss=val_loss, lr=lr))

        if val_loss < best_val - 1e-18:
            best_val = val_loss
            best_model = copy.deepcopy(model)
            stale = 0
            plateau = 0
        else:
            stale += 1
            plateau += 1
            if plateau >= cfg.plateau_patience:
                lr *= cfg.decay_factor
                plateau = 0
            if stale >= cfg.early_stop_patience:
                break
    return best_model, history


def evaluate_single_step(model, trajectories: list[Trajectory],
                         samples: list[tuple[int, int]] | None = None) -> float:
    """Mean clean single-step loss over all frame pairs."""
    if samples is None:
        samples = _samples(trajectories)
    if not samples:
        return np.nan
    total = 0.0
    for traj_idx, t in samples:
        loss = _sample_loss(model, trajectories[traj_idx], t, None, None, None)
        total += float(ad.value_of(loss))
    return total / len(samples)


def rotate_trajectory(traj: Trajectory, theta: float) -> Trajectory:
    """The whole trajectory rotated about the gravity axis."""
    O = sample_subgroup_transform(theta, gravity=Gravity()).O
    return Trajectory(
        frames=traj.frames @ O.T, object_of=traj.object_of, attrs=traj.attrs, dt=traj.dt
    )


def evaluate(
    model,
    trajectories: list[Trajectory],
    horizons: list[int],
    *,
    rigid: bool = False,
    contact_pairs: list[tuple[int, int]] | None = None,
    contact_threshold: float | None = None,
    rotate_angles: list[float] | None = None,
    seed: int = 0,  # read by nothing; kept because perfbench's rollout workload passes it
) -> dict:
    """Roll the model out on each trajectory and tabulate errors.

    Rollouts start at frame 1 (frames 0 and 1 seed the velocity); the
    predicted trajectory shares the truth's frame indexing, so a horizon is
    an absolute frame index.  ``rotate_angles`` pre-rotates each trajectory
    about the gravity axis (one angle per trajectory) before evaluation.
    Returns fixed-schema rows plus the per-trajectory error matrix.
    """
    if not trajectories:
        raise ContractError("no trajectories to evaluate")
    horizons = sorted(int(h) for h in horizons)
    t_max = min(t.n_frames for t in trajectories) - 1
    if horizons and horizons[0] < 1:
        raise ContractError(f"horizon {horizons[0]} is below 1")
    if horizons and horizons[-1] > t_max:
        raise ContractError(f"horizon {horizons[-1]} exceeds last frame {t_max}")
    if rotate_angles is not None and len(rotate_angles) != len(trajectories):
        raise ContractError("need one rotation angle per trajectory")
    if contact_pairs is None:
        object_counts = {int(t.object_of.max()) + 1 for t in trajectories}
        if len(object_counts) > 1:
            raise ContractError(
                f"trajectories have {sorted(object_counts)} objects; pass contact_pairs"
            )
        n_objects = object_counts.pop()
        contact_pairs = [(k, l) for k in range(n_objects) for l in range(k + 1, n_objects)]

    errors = np.zeros((len(trajectories), len(horizons)))
    preds: list[Trajectory] = []
    truths: list[Trajectory] = []
    for idx, truth in enumerate(trajectories):
        if rotate_angles is not None:
            truth = rotate_trajectory(truth, rotate_angles[idx])
        initial = truth.system_at(1)
        steps = truth.n_frames - 2
        rigid_objects = None
        if rigid:
            counts = np.bincount(truth.object_of)
            flags = truth.attrs[:, -1] > 0.5 if truth.attrs.shape[1] else np.ones(len(truth.object_of))
            rigid_objects = np.array(
                [bool(flags[truth.object_of == k].all()) and counts[k] >= 3
                 for k in range(len(counts))]
            )
        pred_tail = rollout(
            model, initial, steps, rigid=rigid, rigid_objects=rigid_objects, dt=truth.dt,
        )
        frames = np.concatenate([truth.frames[:1], pred_tail.frames], axis=0)
        pred = Trajectory(frames=frames, object_of=truth.object_of, attrs=truth.attrs, dt=truth.dt)
        preds.append(pred)
        truths.append(truth)
        for col, h in enumerate(horizons):
            errors[idx, col] = rollout_mse(pred, truth, h)

    threshold = contact_threshold if contact_threshold is not None else model.cutoff
    if contact_pairs:
        acc = float(np.mean([
            contact_accuracy(preds, truths, pair, threshold) for pair in contact_pairs
        ]))
    else:
        acc = np.nan

    rows = [
        {
            "horizon": h,
            "mse_mean": float(errors[:, col].mean()),
            "mse_std": float(errors[:, col].std()),
            "contact_accuracy": acc,
        }
        for col, h in enumerate(horizons)
    ]
    return {"rows": rows, "per_trajectory": errors, "horizons": horizons}
