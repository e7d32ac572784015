"""The checkpoint codec's key table, and the checkpoints it pins.

``tests/data/v2/*.sgnn`` hold format 2, one file per variant, from
``_fixture_model(name)``.  A fresh save writes their bytes, and each fixture
loads and rewrites to them exactly.  They hold the models the format-1 files
held (format 1, which stored the sigmas on the square layout, is refused), and
must still predict bit for bit as those files did.
"""

import hashlib
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sgnn import layers
from sgnn.baselines import make_baseline
from sgnn.checkpoint import read_tensors, write_tensors
from sgnn.errors import CheckpointFormatError
from sgnn.graph import ParticleSystem
from sgnn.mlp import MLP
from sgnn.model import make_sgnn_model
from sgnn.modelio import FAMILIES, load_model, save_model

V2 = Path(__file__).parent / "data" / "v2"
FIXTURES = ("sgnn", "sgnn_no_hierarchy", "gns", "egnn", "egnn_s", "gmn", "gmn_s")


def _fixture_model(name: str):
    rng = np.random.default_rng(7)
    if name.startswith("sgnn"):
        model = make_sgnn_model(rng, 2, hidden=4, iterations=1,
                                no_hierarchy=name == "sgnn_no_hierarchy")
        model.stage1.aggregate = "mean"
    else:
        model = make_baseline(name, rng, 2, hidden=4, iterations=1)
    model.velocity_scale = 0.0375
    return model


@pytest.mark.parametrize("name", FIXTURES)
def test_save_writes_the_fixture_bytes(tmp_path, name):
    path = tmp_path / f"{name}.sgnn"
    save_model(path, _fixture_model(name))
    assert path.read_bytes() == (V2 / f"{name}.sgnn").read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_loads_and_rewrites_byte_for_byte(tmp_path, name):
    path = tmp_path / f"{name}.sgnn"
    model = load_model(V2 / f"{name}.sgnn")
    save_model(path, model)
    assert path.read_bytes() == (V2 / f"{name}.sgnn").read_bytes()
    out = np.asarray(model.predict(_parity_frame()))
    assert out.shape == (8, 3)
    assert np.isfinite(out).all()


def test_a_square_sigma_in_a_format_2_file_raises(tmp_path, monkeypatch):
    # the fixture with stage 1's phi_sigma swapped for the constructors'
    # unfolded square draw, the layout format 1 stored
    with monkeypatch.context() as patch:
        patch.setattr(layers, "fold_v1_sigmas", lambda params: params)
        save_model(tmp_path / "square.sgnn", _fixture_model("sgnn"))
    tensors = read_tensors(V2 / "sgnn.sgnn")
    tensors.update({k: v for k, v in read_tensors(tmp_path / "square.sgnn").items()
                    if k.startswith("stage1/phi_sigma/")})
    path = tmp_path / "edited.sgnn"
    write_tensors(path, list(tensors.items()))
    with pytest.raises(CheckpointFormatError,
                       match=re.escape("MLP stage1/phi_sigma has shapes [(108, 4)")):
        load_model(path)


# SHA-256 of each format-1 fixture's prediction on ``_parity_frame``, with
# every zero-initialized last layer filled by ``_fill_zero_last_layers`` so that
# each net reaches the output; the v2 fixtures reproduce all seven.  Measured
# with numpy on OpenBLAS 0.3.31 (x86-64, Haswell kernels); another BLAS may
# round the matmuls differently.
V1_PREDICTIONS = {
    "sgnn": "66e3c9c6876171c8735e4a2c8aa89def12a885d1889876ecae7a6d30255270df",
    "sgnn_no_hierarchy": "a367bf0857e9ce0da468397ca0ccfd3a707ff4f1c1f99685fe00810b79301923",
    "gns": "b904b5c9ef9ceb791f0ad3b984a2e61a967142c6ca10d69f3fcd63d689ca2b63",
    "egnn": "44a8792bc696a5662860152e66201ec9e0479ab52cfe47a7fa4a969e4fa0c64c",
    "egnn_s": "fc03ece0d62a34fadad400ee03b6faa14e41e7fc673cee003101cd6fab3d9cf1",
    "gmn": "e67b8fd1f20e4f3dbf022b97d4579faea1d241174073bd2235932b6472f4d108",
    "gmn_s": "12fb7403a8eba40bcf25770d12ee2e1a5a22051fd858e2ab658abe5c3a422f65",
}


def _parity_frame():
    rng = np.random.default_rng(0)
    n = 8
    return ParticleSystem(positions=rng.uniform(-0.04, 0.04, size=(n, 3)),
                          velocities=0.01 * rng.normal(size=(n, 3)),
                          attrs=rng.normal(size=(n, 2)), object_of=np.arange(n) % 2)


def _fill_zero_last_layers(model):
    """Zero-initialized last layers (the residual updates) make a fresh
    model predict its input, whatever its other nets hold.  Their shapes do
    not depend on the format, so the same fixed values fill them in each."""
    for net in model.mlps():
        w = net.weights[-1]
        if not w.any():
            w[:] = 0.5 * np.cos(np.arange(w.size) + 0.25).reshape(w.shape)


@pytest.mark.parametrize("name", FIXTURES)
def test_v1_fixture_predicts_bit_for_bit_as_before(name):
    # the name keeps the digests' origin: the v2 fixture predicts as its v1 file did
    model = load_model(V2 / f"{name}.sgnn")
    _fill_zero_last_layers(model)
    system = _parity_frame()
    out = np.asarray(model.predict(system))
    assert np.abs(out - system.positions).max() > 1e-4  # the filled nets are read
    assert hashlib.sha256(out.tobytes()).hexdigest() == V1_PREDICTIONS[name]


@pytest.mark.parametrize("name", FIXTURES)
def test_v1_fixture_loads_as_the_fixture_model(name):
    got, want = load_model(V2 / f"{name}.sgnn").mlps(), _fixture_model(name).mlps()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.activations == b.activations
        assert [p.shape for p in a.parameters()] == [p.shape for p in b.parameters()]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.parameters(), b.parameters()))


@pytest.mark.parametrize("variant,unwritten", [
    ("sgnn", set()), ("gns", {"aggregate"}), ("egnn", {"aggregate"}), ("gmn", {"aggregate"}),
])
def test_table_covers_every_params_field(variant, unwritten):
    """Each non-MLP field is written, fixed by the variant, or named here.

    A field added to a params class without an entry in the key table fails
    this test until its storage is chosen."""
    fam = FAMILIES[variant]
    params = fam.make(np.random.default_rng(0), 2, hidden=4)
    assert type(params) is fam.cls
    names = {f.name for f in fields(fam.cls)}
    nets = {n for n in names if isinstance(getattr(params, n), MLP)}
    assert set(fam.mlps.values()) == nets
    written = {fam.negated.get(k, k) for k in fam.keys}
    assert len(written) == len(fam.keys)
    assert not written & set(fam.fixed) and not (written | set(fam.fixed)) & unwritten
    assert names - nets == written | set(fam.fixed) | unwritten
    assert all(getattr(params, k) == v for k, v in fam.fixed.items())


@pytest.mark.xfail(strict=True, reason="baseline checkpoints store no aggregate key and load "
                   "with sum (CHANGES.md FOUND on modelio; ROADMAP item 1 adds the key)")
@pytest.mark.parametrize("variant", ["gns", "egnn", "gmn"])
def test_baseline_aggregate_round_trips(tmp_path, variant):
    model = make_baseline(variant, np.random.default_rng(0), 2, hidden=4, iterations=1)
    model.params.aggregate = "mean"
    path = tmp_path / f"{variant}.sgnn"
    save_model(path, model)
    assert load_model(path).params.aggregate == "mean"
