"""Binary tensor container and model checkpoint round trips."""

import json

import numpy as np
import pytest

from sgnn.baselines import make_baseline
from sgnn.checkpoint import read_tensors, write_tensors
from sgnn.cli import main
from sgnn.errors import CheckpointFormatError
from sgnn.graph import ParticleSystem
from sgnn.model import make_sgnn_model
from sgnn.modelio import load_model, save_model


def test_tensor_container_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    named = [
        ("a/w0", rng.normal(size=(3, 4))),
        ("a/b0", rng.normal(size=(1, 4))),
        ("deep/nested/name", rng.normal(size=(7, 2))),
    ]
    path = tmp_path / "params.sgnn"
    write_tensors(path, named)
    back = read_tensors(path)
    assert list(back.keys()) == [n for n, _ in named]
    for name, tensor in named:
        assert np.array_equal(back[name], np.atleast_2d(tensor))


def test_container_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.sgnn"
    path.write_bytes(b"XXXX\x01\x00\x00\x00")
    with pytest.raises(CheckpointFormatError):
        read_tensors(path)
    good = tmp_path / "good.sgnn"
    write_tensors(good, [("t", np.ones((2, 2)))])
    data = good.read_bytes()
    good.write_bytes(data[:-5])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        read_tensors(good)


def test_non_utf8_tensor_name_raises_typed_error(tmp_path):
    path = tmp_path / "params.sgnn"
    write_tensors(path, [("ok", np.ones((1, 1))), ("name", np.ones((2, 2)))])
    data = bytearray(path.read_bytes())
    second_name = 8 + 4 + 2 + 8 + 8 + 4  # header, first record, second name length
    data[second_name] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match=f"at {second_name} is not UTF-8"):
        read_tensors(path)
    with pytest.raises(CheckpointFormatError):
        load_model(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_payload_raises_typed_error(tmp_path, bad):
    path = tmp_path / "model.sgnn"
    save_model(path, make_sgnn_model(np.random.default_rng(5), 2, hidden=8, iterations=1))
    last = list(read_tensors(path))[-1]
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([bad], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match=f"tensor {last!r} holds non-finite"):
        read_tensors(path)
    with pytest.raises(CheckpointFormatError):
        load_model(path)


def _system(rng, n=10):
    return ParticleSystem(
        positions=rng.uniform(-0.05, 0.05, size=(n, 3)),
        velocities=0.01 * rng.normal(size=(n, 3)),
        attrs=rng.normal(size=(n, 2)),
        object_of=np.arange(n) % 2,
    )


def test_sgnn_model_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    model = make_sgnn_model(rng, 2, hidden=8, iterations=1, cutoff=0.1,
                            zero_init_update=False, msg_extra=4)
    model.stage1.aggregate = "mean"
    sys_ = _system(rng)
    want = model.predict(sys_)
    path = tmp_path / "model.sgnn"
    save_model(path, model)
    back = load_model(path)
    np.testing.assert_array_equal(back.predict(sys_), want)
    assert back.variant == "sgnn"
    assert back.stage1.aggregate == "mean"


@pytest.mark.parametrize("variant", ["gns", "egnn", "egnn_s", "gmn", "gmn_s"])
def test_baseline_round_trip(tmp_path, variant):
    rng = np.random.default_rng(2)
    model = make_baseline(variant, rng, 2, hidden=8, iterations=2, cutoff=0.1,
                          zero_init_update=False)
    sys_ = _system(rng)
    want = model.predict(sys_)
    path = tmp_path / f"{variant}.sgnn"
    save_model(path, model)
    back = load_model(path)
    np.testing.assert_array_equal(back.predict(sys_), want)
    assert back.variant == variant


def test_gmn_checkpoint_keeps_v1_layout(tmp_path):
    rng = np.random.default_rng(3)
    model = make_baseline("gmn_s", rng, 2, hidden=8, iterations=2, cutoff=0.1)
    path = tmp_path / "gmn_s.sgnn"
    save_model(path, model)
    tensors = read_tensors(path)
    nets = {name.split("/")[0] for name in tensors if not name.startswith("header/")}
    assert nets == {"sigma_msg", "sigma_upd", "eta_msg", "eta_upd"}
    meta = json.loads(bytes(tensors["header/config_utf8"].reshape(-1).astype(np.uint8)))
    assert meta["params"]["subequivariant"] is True


def _small_sgnn():
    return make_sgnn_model(np.random.default_rng(4), 2, hidden=8, iterations=1)


def _header_meta(tmp_path) -> dict:
    path = tmp_path / "source.sgnn"
    save_model(path, _small_sgnn())
    raw = read_tensors(path)["header/config_utf8"].reshape(-1)
    return json.loads(bytes(raw.astype(np.uint8)))


def _with_header(tmp_path, header: np.ndarray):
    """A valid sgnn checkpoint whose header tensor is replaced by ``header``."""
    path = tmp_path / "model.sgnn"
    save_model(path, _small_sgnn())
    tensors = read_tensors(path)
    tensors["header/config_utf8"] = header.reshape(1, -1)
    write_tensors(path, list(tensors.items()))
    return path


@pytest.mark.parametrize("case", ["not_json", "not_utf8", "not_bytes", "gravity_mag",
                                  "variant", "stages", "params", "aggregate",
                                  "stage3_from_stage1"])
def test_malformed_header_raises_typed_error(tmp_path, case):
    if case == "not_json":
        header = np.frombuffer(b"{not json", dtype=np.uint8).astype(np.float64)
    elif case == "not_utf8":
        header = np.array([255.0, 254.0, 123.0])
    elif case == "not_bytes":
        header = np.array([123.5, 300.0, -1.0])
    else:
        meta = _header_meta(tmp_path)
        if case == "params":
            meta["variant"] = "gns"
        elif case == "aggregate":
            meta["stages"]["stage1"]["aggregate"] = "median"
        elif case == "stage3_from_stage1":
            meta[case] = True
        else:
            del meta[case]
        header = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8).astype(np.float64)
    path = _with_header(tmp_path, header)
    with pytest.raises(CheckpointFormatError):
        load_model(path)


@pytest.mark.parametrize("no_hierarchy", [False, True])
def test_no_hierarchy_key_must_match_stages(tmp_path, no_hierarchy):
    path = tmp_path / "model.sgnn"
    model = make_sgnn_model(np.random.default_rng(4), 2, hidden=8, iterations=1,
                            no_hierarchy=no_hierarchy)
    assert model.no_hierarchy is no_hierarchy
    save_model(path, model)
    assert load_model(path).no_hierarchy is no_hierarchy
    tensors = read_tensors(path)
    meta = json.loads(bytes(tensors["header/config_utf8"].reshape(-1).astype(np.uint8)))
    assert meta["no_hierarchy"] is no_hierarchy
    meta["no_hierarchy"] = not no_hierarchy
    header = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8).astype(np.float64)
    tensors["header/config_utf8"] = header.reshape(1, -1)
    write_tensors(path, list(tensors.items()))
    with pytest.raises(CheckpointFormatError, match="disagrees with stages"):
        load_model(path)


def test_eval_exits_1_on_malformed_header(tmp_path, capsys):
    path = _with_header(tmp_path, np.array([255.0, 254.0]))
    rc = main(["eval", str(path), "--data", str(tmp_path), "--out", str(tmp_path / "e")])
    assert rc == 1
    assert "header is not JSON" in capsys.readouterr().err
