"""The benchmark's four workloads, each a closed loop with one client.

Every workload makes its inputs from the workload seed, passes the program
only those inputs, times the calls into the program, checks each output and
keeps a digest of it.  Scene, model and training settings are those of
acceptance criterion 8 (see README.md for why each workload exists).

A workload has four steps, called by ``run.py``:

* ``prepare(seed, workdir)``: make the inputs once per run (untimed);
* ``setup()``: the timed work before the loop, repeated to take a median;
* ``start(state)``: untimed bookkeeping after the last setup; returns the
  tags that split spans by hierarchy stage, and the function whose calls
  mark the end of one unit of work inside a single public call;
* ``op(state, k, session)``: one closed-loop request, timed through
  ``session.timed()``; ``final_checks(state)`` runs after the loop.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sgnn import baselines, model as sgnn_model, modelio, scenes, training
from sgnn.errors import SgnnError

# acceptance criterion 8: 3 cubes of 3^3 particles (N=81), 41 frames
SCENE = dict(objects=3, lattice=3, frames=41, push_speed=0.25, bias_angle=0.0,
             drop_height=0.12)
MODEL = dict(hidden=32, iterations=2, cutoff=0.08)
SGNN_EXTRA = dict(msg_channels=2, msg_extra=8)
INIT_SEED = 0
TRAIN = dict(lr=1e-3, decay_factor=0.6, plateau_patience=1, batch_size=1)

TRAIN_SCENES = 10       # train() holds out the last one for validation
VAL_SCENES = 1
# one op.  Criterion 8 validates 5 scenes (195 samples) per epoch of 400
# training samples; 39 validation samples per 80 keeps that ratio (0.49)
SAMPLES_PER_EPOCH = 80
CKPT_SCENES = 2         # the rollout checkpoint's fixed training set
CKPT_SAMPLES = 16
HELD_OUT_SCENES = 6
HORIZONS = [10, 20, 40]
RIGID_TOL = 1e-10       # criterion 7
ROTATION_GAP_TOL = 1e-7  # criterion 8

# purposes keep the seed streams of different inputs apart
_SCENE_GEN, _SCENE_TRAIN, _EPOCH, _HELD_OUT, _ANGLE, _WARMUP, _CKPT = range(1, 8)


def derive_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def scene_config(seed: int) -> scenes.SceneConfig:
    return scenes.SceneConfig(**SCENE, seed=seed)


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def files_digest(paths) -> str:
    return sha256(*(Path(p).read_bytes() for p in paths))


def floats_blob(values) -> bytes:
    return ",".join(float(v).hex() for v in np.ravel(values)).encode()


def build_model(variant: str, n_scalar: int):
    rng = np.random.default_rng(INIT_SEED)
    if variant == "sgnn":
        net = sgnn_model.make_sgnn_model(rng, n_scalar, **MODEL, **SGNN_EXTRA)
        for stage in (net.stage1, net.stage2, net.stage3):
            stage.aggregate = "mean"
        return net
    net = baselines.make_baseline(variant, rng, n_scalar, **MODEL)
    net.params.aggregate = "mean"
    return net


def rigidity_error(traj) -> float:
    """Largest drift of any intra-object distance from its first frame."""
    worst = 0.0
    for k in range(int(traj.object_of.max()) + 1):
        pts = traj.frames[:, traj.object_of == k, :]
        d = np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=-1)
        worst = max(worst, float(np.abs(d - d[0]).max()))
    return worst


@dataclass
class OpResult:
    units: int                 # scenes, samples or steps completed
    failed: int                # units whose output failed a check
    intervals: list[float]     # one duration per unit that could be timed alone
    digest: str
    notes: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


class Generate:
    """Seeded scenes through the rigid-cube oracle and ``save_trajectory``."""

    name = "generate"
    unit = "scene"
    labels = ("generate_scenes_per_s", "generate_scene_ms_p50", "generate_scene_ms_p90")

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.config_text = scenes.format_scene_config(scene_config(0))
        self.inputs_digest = sha256(self.config_text.encode())

    def setup(self):
        base = scenes.parse_scene_config(self.config_text)
        # a fixed warm-up scene, so that set-up time does not vary with the seed
        warm = scenes.SceneConfig(**{**base.__dict__, "seed": derive_seed(_WARMUP)})
        scenes.generate_scene(warm)
        return base

    def start(self, state):
        return {}, None

    def op(self, base, k: int, session) -> OpResult:
        cfg = scenes.SceneConfig(**{**base.__dict__, "seed": derive_seed(_SCENE_GEN, self.seed, k)})
        path = self.workdir / f"scene_{k:05d}.sgtj"
        with session.timed() as t:
            traj = scenes.generate_scene(cfg)
            scenes.save_trajectory(traj, path)
        blob = path.read_bytes()
        ok = rigidity_error(traj) < RIGID_TOL and self._round_trips(traj, path, blob)
        return OpResult(units=1, failed=0 if ok else 1, intervals=[t.seconds],
                        digest=sha256(blob))

    def _round_trips(self, traj, path: Path, blob: bytes) -> bool:
        back = scenes.load_trajectory(path)
        copy_path = path.with_suffix(".again")
        scenes.save_trajectory(back, copy_path)
        same = (
            back.frames.tobytes() == traj.frames.tobytes()
            and back.attrs.tobytes() == traj.attrs.tobytes()
            and np.array_equal(back.object_of, traj.object_of)
            and back.dt == traj.dt
            and copy_path.read_bytes() == blob
        )
        copy_path.unlink()
        return same

    def final_checks(self, state) -> list[Check]:
        return []


@dataclass
class TrainState:
    trajs: list
    model: object
    untrained: object = None
    last_val: float = math.nan


class Train:
    """Epochs of ``train()`` at the criterion-8 budget for one variant."""

    unit = "sample"
    labels = ("train_samples_per_s", "train_sample_ms_p50", "train_sample_ms_p90")

    def __init__(self, name: str, variant: str):
        self.name = name
        self.variant = variant

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.paths = []
        for k in range(TRAIN_SCENES):
            path = workdir / f"train_{k:02d}.sgtj"
            scenes.save_trajectory(
                scenes.generate_scene(scene_config(derive_seed(_SCENE_TRAIN, seed, k))), path)
            self.paths.append(path)
        self.inputs_digest = files_digest(self.paths)

    def setup(self) -> TrainState:
        trajs = [scenes.load_trajectory(p) for p in self.paths]
        net = build_model(self.variant, trajs[0].attrs.shape[1])
        net.predict(trajs[0].system_at(1))
        return TrainState(trajs=trajs, model=net)

    def start(self, state: TrainState):
        state.untrained = copy.deepcopy(state.model)
        tags = {}
        if self.variant == "sgnn":
            tags = {id(state.model.stage1): "stage1", id(state.model.stage2): "stage2",
                    id(state.model.stage3): "stage3"}
        # batch 1: a sample ends with one Adam step per MLP
        return tags, (training, "adam_step", len(state.model.mlps()))

    def op(self, state: TrainState, k: int, session) -> OpResult:
        cfg = training.TrainConfig(**TRAIN, max_epochs=1, max_steps_per_epoch=SAMPLES_PER_EPOCH,
                                   seed=derive_seed(_EPOCH, self.seed, k))
        history, error = [], None
        with session.timed() as t:
            try:
                _, history = training.train(state.model, state.trajs, cfg)
            except SgnnError as err:
                error = err
        losses = [v for row in history for v in (row.train_loss, row.val_loss)]
        ok = error is None and len(history) == 1 and all(np.isfinite(losses))
        ckpt = self.workdir / "epoch.sgnn"
        modelio.save_model(ckpt, state.model)
        if ok:
            state.last_val = history[-1].val_loss
        return OpResult(units=SAMPLES_PER_EPOCH, failed=0 if ok else SAMPLES_PER_EPOCH,
                        intervals=t.intervals, digest=sha256(ckpt.read_bytes(), floats_blob(losses)),
                        notes={"error": repr(error)} if error else {})

    def final_checks(self, state: TrainState) -> list[Check]:
        untrained = training.evaluate_single_step(state.untrained, state.trajs[-VAL_SCENES:])
        ok = bool(state.last_val < untrained)
        return [Check("validation loss below the untrained model's", ok,
                      f"final {state.last_val:.6e} vs untrained {untrained:.6e}")]


def train_checkpoint(path: str) -> None:
    """Trains the rollout checkpoint and saves it to ``path``.  It depends on
    no workload seed, so every run rolls out the same model."""
    trajs = [scenes.generate_scene(scene_config(derive_seed(_CKPT, k)))
             for k in range(CKPT_SCENES)]
    net = build_model("sgnn", trajs[0].attrs.shape[1])
    cfg = training.TrainConfig(**TRAIN, max_epochs=1, max_steps_per_epoch=CKPT_SAMPLES, seed=0)
    trained, _ = training.train(net, trajs, cfg)
    modelio.save_model(path, trained)


@dataclass
class RolloutState:
    model: object
    held_out: list


class Rollout:
    """Criterion-8 evaluation: 39-step rigid rollouts of a fixed checkpoint,
    plain and rotated about gravity, over held-out scenes."""

    name = "rollout"
    unit = "step"
    labels = ("rollout_steps_per_s", "rollout_step_ms_p50", "rollout_step_ms_p90")

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        ckpt = workdir / "model.sgnn"
        # trained in a child process, so that this process never holds the
        # tape and peak_rss_mb is the rollout's own.  subprocess.run waits for
        # the child on every path out (multiprocessing would leave its
        # resource tracker running after this process ends)
        here = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(here), str(Path(sgnn_model.__file__).resolve().parent.parent)])}
        subprocess.run(
            [sys.executable, "-c", "import sys, workloads; workloads.train_checkpoint(sys.argv[1])",
             str(ckpt)], env=env, check=True, timeout=150)
        self.trained = modelio.load_model(ckpt)
        self.paths = []
        for k in range(HELD_OUT_SCENES):
            path = workdir / f"held_out_{k:02d}.sgtj"
            scenes.save_trajectory(
                scenes.generate_scene(scene_config(derive_seed(_HELD_OUT, seed, k))), path)
            self.paths.append(path)
        self.inputs_digest = files_digest([ckpt] + self.paths)

    def setup(self) -> RolloutState:
        ckpt = self.workdir / "model.sgnn"
        modelio.save_model(ckpt, self.trained)
        net = modelio.load_model(ckpt)
        held_out = [scenes.load_trajectory(p) for p in self.paths]
        net.predict(held_out[0].system_at(1))
        return RolloutState(model=net, held_out=held_out)

    def start(self, state: RolloutState):
        net = state.model
        tags = {id(net.stage1): "stage1", id(net.stage2): "stage2", id(net.stage3): "stage3"}
        return tags, (sgnn_model.SGNNModel, "predict", 1)

    def op(self, state: RolloutState, k: int, session) -> OpResult:
        traj = state.held_out[k % len(state.held_out)]
        angle = 2.0 * math.pi * derive_seed(_ANGLE, self.seed, k) / 2.0**32
        units = 2 * (traj.n_frames - 2)
        results, intervals, error = [], [], None
        try:
            for rotate in (None, [angle]):
                with session.timed() as t:
                    results.append(training.evaluate(state.model, [traj], HORIZONS, rigid=True,
                                                     rotate_angles=rotate, seed=k))
                intervals += t.intervals
        except SgnnError as err:
            error = err
        if error is not None:
            return OpResult(units=units, failed=units, intervals=intervals,
                            digest=sha256(repr(error).encode()), notes={"error": repr(error)})
        plain, rotated = results
        gap = float(np.abs(plain["per_trajectory"] - rotated["per_trajectory"]).max())
        ok = gap < ROTATION_GAP_TOL and bool(np.isfinite(plain["per_trajectory"]).all())
        blob = floats_blob(np.concatenate([
            plain["per_trajectory"].ravel(), rotated["per_trajectory"].ravel(),
            [r["contact_accuracy"] for r in plain["rows"] + rotated["rows"]],
        ]))
        return OpResult(units=units, failed=0 if ok else units, intervals=intervals,
                        digest=sha256(blob), notes={"rotation_gap": gap})

    def final_checks(self, state: RolloutState) -> list[Check]:
        return []


WORKLOADS = {
    "generate": Generate,
    "train": lambda: Train("train", "sgnn"),
    "train_gns": lambda: Train("train_gns", "gns"),
    "rollout": Rollout,
}
