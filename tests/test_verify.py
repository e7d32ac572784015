"""The verification harness itself: suites pass at reduced trial counts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgnn
from sgnn.errors import ContractError
from sgnn.verify import (
    equivariance_suite,
    expressivity_separation,
    gradient_suite,
    lemma5_suite,
    reduction_suite,
    run_suite,
)


def test_equivariance_suite_passes():
    results = equivariance_suite(trials=30, seed=1)
    for r in results:
        assert r.passed, r.line()
    names = [r.name for r in results]
    assert any("witness" in n for n in names)


def test_gradient_suite_passes():
    for r in gradient_suite(instances=2, seed=1):
        assert r.passed, r.line()


def test_gradient_suite_output_independent_of_hash_seed():
    src = str(Path(sgnn.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "sgnn.cli", "verify", "--suite", "gradients",
             "--trials", "1", "--seed", "3"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_lemma5_suite_passes():
    for r in lemma5_suite(trials=100, seed=1):
        assert r.passed, r.line()


def test_reduction_suite_passes():
    for r in reduction_suite(instances=5, seed=1):
        assert r.passed, r.line()


def test_run_suite_dispatch():
    assert len(run_suite("lemma5", 50, 0)) == 2
    with pytest.raises(ContractError):
        run_suite("nonsense", 10, 0)
    with pytest.raises(ContractError):
        run_suite("all", 0, 0)


def test_expressivity_quick_budget():
    # tiny budget: the augmented form is already orders of magnitude better
    sub_loss, resid = expressivity_separation(seed=1, samples=32, steps=800)
    assert resid > 0.1
    assert sub_loss < resid**2 / 10.0
