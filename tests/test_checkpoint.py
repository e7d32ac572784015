"""Binary tensor container and model checkpoint round trips."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from sgnn.baselines import make_baseline
from sgnn.checkpoint import read_tensors, write_tensors
from sgnn.cli import main
from sgnn.errors import CheckpointFormatError
from sgnn.geometry import Gravity
from sgnn.graph import ParticleSystem
from sgnn.mlp import MLP
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


_GRAVITY = Gravity(direction=np.array([0.6, 0.0, -0.8]), magnitude=4.5)


def _assert_same_model(back, model):
    """Every stored field and parameter of ``model`` came back."""
    for name in ("variant", "cutoff", "velocity_scale", "zero_object_features", "shared_edges"):
        assert getattr(back, name, None) == getattr(model, name, None), name
    assert back.gravity.magnitude == model.gravity.magnitude
    np.testing.assert_array_equal(back.gravity.direction, model.gravity.direction)
    parts = ["params"] if hasattr(model, "params") else ["stage1", "stage2", "stage3"]
    for part in parts:
        got, want = getattr(back, part), getattr(model, part)
        assert (got is None) == (want is None), part
        for f in fields(want) if want is not None else ():
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, MLP):
                assert a.activations == b.activations and len(a.weights) == len(b.weights)
                for x, y in zip(a.parameters(), b.parameters()):
                    np.testing.assert_array_equal(x, y)
            else:
                assert a == b, (part, f.name)


def test_sgnn_model_round_trip(tmp_path):
    """Every written field differs from its default (``node_channels`` is
    fixed by the layer's two-channel stacks)."""
    rng = np.random.default_rng(1)
    model = make_sgnn_model(rng, 2, hidden=8, iterations=1, cutoff=0.1, gravity=_GRAVITY,
                            zero_init_update=False, msg_channels=3, msg_extra=4,
                            equivariant_only=True, zero_object_features=True, shared_edges=True)
    model.velocity_scale = 0.025
    for stage in (model.stage1, model.stage2, model.stage3):
        stage.aggregate, stage.normalize = "mean", False
    sys_ = _system(rng)
    want = model.predict(sys_)
    path = tmp_path / "model.sgnn"
    save_model(path, model)
    back = load_model(path)
    np.testing.assert_array_equal(back.predict(sys_), want)
    _assert_same_model(back, model)
    assert back.stage1.aggregate == "mean" and back.stage2.use_objects is False


_BASELINE_KWARGS = {"gns": {"msg_dim": 8}, "egnn": {"msg_dim": 8},
                    "gmn": {"msg_channels": 3, "msg_extra": 4, "normalize": False}}


@pytest.mark.parametrize("variant", ["gns", "egnn", "egnn_s", "gmn", "gmn_s"])
def test_baseline_round_trip(tmp_path, variant):
    """Every written field differs from its default; ``aggregate`` is not
    written (see test_modelio)."""
    rng = np.random.default_rng(2)
    model = make_baseline(variant, rng, 2, hidden=8, iterations=2, cutoff=0.1, gravity=_GRAVITY,
                          zero_init_update=False, **_BASELINE_KWARGS[variant.removesuffix("_s")])
    model.velocity_scale = 0.025
    sys_ = _system(rng)
    want = model.predict(sys_)
    path = tmp_path / f"{variant}.sgnn"
    save_model(path, model)
    back = load_model(path)
    np.testing.assert_array_equal(back.predict(sys_), want)
    _assert_same_model(back, model)


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


def _stage1(key, value):
    return lambda meta: meta["stages"]["stage1"].update({key: value})


# case -> (edit of a valid sgnn header, text the error must contain)
_HEADER_EDITS = {
    "gravity_mag": (lambda m: m.pop("gravity_mag"), "header lacks keys ['gravity_mag']"),
    "variant": (lambda m: m.pop("variant"), "unknown variant None"),
    "stages": (lambda m: m.pop("stages"), "header lacks keys ['stages']"),
    "params": (lambda m: m.update(variant="gns"), "header lacks keys ['params']"),
    "aggregate": (_stage1("aggregate", "median"), "stages.stage1.aggregate 'median'"),
    "stage3_from_stage1": (lambda m: m.update(stage3_from_stage1=True), "stage3_from_stage1"),
    "iterations_string": (_stage1("iterations", "2"), "stages.stage1.iterations must be"),
    "iterations_negative": (_stage1("iterations", -3), "stages.stage1.iterations must be"),
    "iterations_bool": (_stage1("iterations", True), "stages.stage1.iterations must be"),
    "use_objects_string": (_stage1("use_objects", "no"), "stages.stage1.use_objects must be"),
    "msg_channels_width": (_stage1("msg_channels", 5), "MLP stage1/phi_sigma has shapes"),
    "n_scalar_zero": (_stage1("n_scalar", 0), "stages.stage1 has dims no model allocates"),
    "stage_extra_key": (_stage1("own_velocity", False), "has extra ['own_velocity']"),
    "stage_missing_key": (lambda m: m["stages"]["stage1"].pop("normalize"),
                          "stages.stage1 lacks keys ['normalize']"),
    "top_extra_key": (lambda m: m.update(aggregate="sum"), "header lacks keys [], has extra"),
    "cutoff_string": (lambda m: m.update(cutoff="0.1"), "header.cutoff must be a JSON float"),
    "mlps_extra": (lambda m: m["mlps"].update(extra={"activations": ["linear"]}),
                   "mlps lacks keys [], has extra ['extra']"),
    "activation_unknown": (lambda m: m["mlps"]["stage1/phi_eta"].update(activations=["tanh"]),
                           "mlps.stage1/phi_eta.activations"),
    "activations_empty": (lambda m: m["mlps"]["stage1/phi_eta"].update(activations=[]),
                          "mlps.stage1/phi_eta.activations"),
}


@pytest.mark.parametrize("case", ["not_json", "not_utf8", "not_bytes", *_HEADER_EDITS])
def test_malformed_header_raises_typed_error(tmp_path, case):
    match = None
    if case == "not_json":
        header = np.frombuffer(b"{not json", dtype=np.uint8).astype(np.float64)
    elif case == "not_utf8":
        header = np.array([255.0, 254.0, 123.0])
    elif case == "not_bytes":
        header = np.array([123.5, 300.0, -1.0])
    else:
        meta = _header_meta(tmp_path)
        edit, match = _HEADER_EDITS[case]
        edit(meta)
        header = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8).astype(np.float64)
    path = _with_header(tmp_path, header)
    with pytest.raises(CheckpointFormatError, match=re.escape(match) if match else None):
        load_model(path)


@pytest.mark.parametrize("edit", ["extra", "missing", "bias_shape"])
def test_tensors_must_be_exactly_those_the_header_names(tmp_path, edit):
    path = tmp_path / "model.sgnn"
    save_model(path, _small_sgnn())
    tensors = read_tensors(path)
    if edit == "extra":
        tensors["stage2/phi_eta/w2"] = np.ones((1, 1))
    elif edit == "missing":
        del tensors["stage3/psi_eta/b1"]
    else:
        tensors["stage1/psi_eta/b0"] = tensors["stage1/psi_eta/b0"].reshape(-1, 1)
    write_tensors(path, list(tensors.items()))
    match = {"extra": "have extra ['stage2/phi_eta/w2']",
             "missing": "tensors lack ['stage3/psi_eta/b1']",
             "bias_shape": "MLP stage1/psi_eta has shapes"}[edit]
    with pytest.raises(CheckpointFormatError, match=re.escape(match)):
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


def test_eval_exits_1_on_a_header_value_of_the_wrong_type(tmp_path, capsys):
    meta = _header_meta(tmp_path)
    meta["stages"]["stage1"]["iterations"] = "2"
    header = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8).astype(np.float64)
    path = _with_header(tmp_path, header)
    rc = main(["eval", str(path), "--data", str(tmp_path), "--out", str(tmp_path / "e")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "stages.stage1.iterations must be a JSON int >= 0" in err
