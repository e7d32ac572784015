"""The checkpoint codec's key table, and checkpoints written before it.

``tests/data/*.sgnn`` were written by ``save_model`` as it stood before the
key table replaced the hand-listed headers, one file per variant, each from
``_fixture_model(name)``.  Their bytes pin format v1: a fresh save and a
load-then-save must both reproduce them exactly.
"""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sgnn.baselines import make_baseline
from sgnn.graph import ParticleSystem
from sgnn.mlp import MLP
from sgnn.model import make_sgnn_model
from sgnn.modelio import FAMILIES, load_model, save_model

DATA = Path(__file__).parent / "data"
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
    assert path.read_bytes() == (DATA / f"{name}.sgnn").read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_loads_and_rewrites_byte_for_byte(tmp_path, name):
    fixture = DATA / f"{name}.sgnn"
    model = load_model(fixture)
    path = tmp_path / f"{name}.sgnn"
    save_model(path, model)
    assert path.read_bytes() == fixture.read_bytes()
    rng = np.random.default_rng(0)
    n = 8
    system = ParticleSystem(positions=rng.uniform(-0.04, 0.04, size=(n, 3)),
                            velocities=0.01 * rng.normal(size=(n, 3)),
                            attrs=rng.normal(size=(n, 2)), object_of=np.arange(n) % 2)
    out = np.asarray(model.predict(system))
    assert out.shape == (n, 3)
    assert np.isfinite(out).all()


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
