"""glibc keeps the memory a step frees: no page faults per eager predict."""

import ctypes
import platform
import resource

import numpy as np
import pytest

import sgnn
from sgnn.graph import build_edges
from sgnn.model import make_sgnn_model
from sgnn.scenes import SceneConfig, generate_scene


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
def test_eager_predict_takes_no_page_faults_once_warm():
    # a criterion-8 frame (N=81, about 2,080 inner edges): each predict frees
    # about 12 MB of temporaries, which took about 3,200 minor faults per call
    # while glibc trimmed them back to the kernel
    traj = generate_scene(SceneConfig(objects=3, frames=12, push_speed=0.25,
                                      drop_height=0.12, seed=0))
    model = make_sgnn_model(np.random.default_rng(0), traj.attrs.shape[1], hidden=32,
                            iterations=2, msg_extra=8, cutoff=0.08)
    for st in (model.stage1, model.stage2, model.stage3):
        st.aggregate = "mean"
    system = traj.system_at(10)
    edges = build_edges(system, model.cutoff)
    assert edges.inner.shape[0] > 2000
    for _ in range(2):
        model.predict(system, edges)
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.predict(system, edges)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


class _Refusing:
    """A ``mallopt`` that rejects every setting, as musl's does."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append(param)
        return 0


@pytest.mark.parametrize("lookup", ["no library", "no symbol", "refused"])
def test_threshold_helper_is_a_silent_no_op_without_mallopt(lookup, monkeypatch):
    refusing = _Refusing()

    def cdll(name):
        if lookup == "no library":
            raise OSError("no C library")
        return type("Lib", (), {"mallopt": refusing} if lookup == "refused" else {})()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert sgnn._keep_freed_memory() is None
    assert refusing.calls == ([-3] if lookup == "refused" else [])
