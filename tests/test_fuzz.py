"""Seeded fuzz: corrupted trajectory and checkpoint bytes raise typed errors.

Each file is fed to its loader in 600 variants, alternately truncated at a
random length or with 1-3 random bits flipped.  A loader may accept a
variant (a flipped payload bit is still a valid float) but must never
raise anything other than an ``SgnnError`` subclass.
"""

import json

import numpy as np
import pytest

from sgnn.baselines import make_baseline
from sgnn.checkpoint import read_tensors, write_tensors
from sgnn.errors import CheckpointFormatError, SgnnError, TrajectoryParseError
from sgnn.model import make_sgnn_model
from sgnn.modelio import load_model, save_model
from sgnn.scenes import Trajectory, load_trajectory, save_trajectory

VARIANTS = 600


def _variants(data: bytes, seed: int):
    rng = np.random.default_rng(seed)
    for k in range(VARIANTS):
        if k % 2 == 0:
            yield k, data[: rng.integers(0, len(data))]
        else:
            flipped = bytearray(data)
            for bit in rng.choice(len(data) * 8, size=rng.integers(1, 4), replace=False):
                flipped[bit // 8] ^= 1 << (bit % 8)
            yield k, bytes(flipped)


def _write_trajectory(path):
    rng = np.random.default_rng(0)
    save_trajectory(Trajectory(frames=rng.normal(size=(3, 6, 3)),
                               object_of=np.array([0, 0, 1, 1, 2, 2]),
                               attrs=np.ones((6, 1)), dt=0.01), path)


def _write_checkpoint(path):
    model = make_sgnn_model(np.random.default_rng(0), 1, hidden=4, iterations=1,
                            cutoff=0.1, msg_extra=2)
    save_model(path, model)


@pytest.mark.parametrize("write,load,seed", [
    (_write_trajectory, load_trajectory, 0),
    (_write_checkpoint, load_model, 1),
], ids=["trajectory", "checkpoint"])
def test_corrupted_files_raise_only_typed_errors(tmp_path, write, load, seed):
    original = tmp_path / "original"
    write(original)
    load(original)
    path = tmp_path / "variant"
    escaped = []
    for k, data in _variants(original.read_bytes(), seed):
        path.write_bytes(data)
        try:
            load(path)
        except SgnnError:
            pass
        except Exception as err:  # noqa: BLE001 - the test is that none escape
            escaped.append(f"variant {k}: {type(err).__name__}: {err}")
    assert not escaped, "\n".join(escaped)


def _write_small_checkpoint(path):
    save_model(path, make_baseline("gns", np.random.default_rng(0), 1, hidden=2, iterations=1,
                                   cutoff=0.1))


@pytest.mark.parametrize("write,load,error", [
    (_write_trajectory, load_trajectory, TrajectoryParseError),
    (_write_small_checkpoint, load_model, CheckpointFormatError),
], ids=["trajectory", "checkpoint"])
def test_every_truncation_raises_the_format_error(tmp_path, write, load, error):
    """Cut at every byte offset, a file raises its own format's error, and a
    trajectory's names an offset no later than the cut."""
    original = tmp_path / "original"
    write(original)
    data = original.read_bytes()
    path = tmp_path / "cut"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(error) as info:
            load(path)
        assert getattr(info.value, "offset", cut) <= cut, (cut, info.value)


@pytest.mark.parametrize("field,value", [
    ("direction", np.nan), ("magnitude", np.nan), ("magnitude", np.inf),
])
def test_checkpoint_with_non_finite_gravity_raises_typed_error(tmp_path, field, value):
    """A NaN gravity tensor is refused by the tensor reader; a NaN or
    infinite magnitude (valid JSON to Python) is refused by ``Gravity``."""
    path = tmp_path / "model"
    _write_checkpoint(path)
    tensors = read_tensors(path)
    if field == "direction":
        tensors["header/gravity_dir"][0, 0] = value
    else:
        meta = json.loads(bytes(tensors["header/config_utf8"].astype(np.uint8)))
        meta["gravity_mag"] = value
        raw = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        tensors["header/config_utf8"] = raw.astype(np.float64).reshape(1, -1)
    write_tensors(path, list(tensors.items()))
    with pytest.raises(SgnnError):
        load_model(path)
