"""Per-layer metrics from the spans of a traced pass.

A layer is a module of the ``sgnn`` package.  Busy time sums the spans of
the named functions, counting a span nested inside another of the same set
once; self time is a span's duration minus the spans directly inside it.
Loop metrics are per unit of work (scene, sample or step); set-up metrics
are per set-up repetition.  A layer that never runs on a workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

LOOP, SETUP = "loop", "setup"


class SpanIndex:
    def __init__(self, recorder):
        self.rec = recorder
        self.spans = recorder.spans
        self.dur = [s[2] - s[1] for s in self.spans]
        self.self_by_layer = {LOOP: defaultdict(float), SETUP: defaultdict(float)}
        self.by_name = defaultdict(list)
        self.by_phase = defaultdict(list)
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            self.by_name[(s[0], s[4])].append(i)
            self.by_phase[s[4]].append(i)
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        for i, s in enumerate(self.spans):
            self.self_by_layer[s[4]][s[0].split(".", 1)[0]] += self.dur[i] - child[i]

    def matching(self, names, phase, tag=None):
        for name in names:
            for i in self.by_name.get((name, phase), ()):
                s = self.spans[i]
                if tag is None or (s[5] or {}).get("tag") == tag:
                    yield i, s

    def busy(self, names, phase=LOOP, tag=None) -> float:
        names = set(names)
        total = 0.0
        for i, s in self.matching(names, phase, tag):
            parent = s[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += self.dur[i]
        return total

    def calls(self, names, phase=LOOP) -> int:
        return sum(1 for _ in self.matching(names, phase))

    def attr_sum(self, names, key, phase=LOOP) -> float:
        return float(sum((s[5] or {}).get(key, 0) for _, s in self.matching(names, phase)))


def _per(x, n):
    return x / n if n else 0.0


SCALARIZE = ("geometry.scalarize_subequivariant", "geometry.scalarize_equivariant")
LOOP_LAYERS = ("scenes", "graph", "layers", "geometry", "mlp", "ad", "model",
               "baselines", "training")
SETUP_LAYERS = ("modelio", "checkpoint")


def _definitions():
    """name -> (unit, better, fn(index, ops, setups))."""
    d = {}

    def loop_time(name, *spans, tag=None):
        d[name] = ("s/unit", "lower", lambda ix, ops, su: _per(ix.busy(spans, tag=tag), ops))

    def loop_calls(name, *spans):
        d[name] = ("calls/unit", "lower", lambda ix, ops, su: _per(ix.calls(spans), ops))

    def setup_time(name, *spans):
        d[name] = ("s/setup", "lower", lambda ix, ops, su: _per(ix.busy(spans, SETUP), su))

    loop_time("scenes.generate_scene_s", "scenes.generate_scene")
    loop_time("scenes.save_trajectory_s", "scenes.save_trajectory")
    setup_time("scenes.load_trajectory_s", "scenes.load_trajectory")
    loop_time("graph.build_edges_s", "graph.build_edges")
    loop_calls("graph.build_edges_calls", "graph.build_edges")
    for kind in ("inter", "inner", "obj"):
        d[f"graph.edges_{kind}"] = (
            "edges/call", "lower",
            lambda ix, ops, su, kind=kind: _per(ix.attr_sum(["graph.build_edges"], kind),
                                                ix.calls(["graph.build_edges"])))
    for stage in ("stage1", "stage2", "stage3"):
        loop_time(f"layers.{stage}_s", "layers.somp_forward", tag=stage)
    loop_time("geometry.scalarize_s", *SCALARIZE)
    loop_calls("geometry.scalarize_calls", *SCALARIZE)
    loop_time("mlp.mlp_forward_s", "mlp.mlp_forward")
    loop_calls("mlp.mlp_forward_calls", "mlp.mlp_forward")
    loop_time("mlp.adam_step_s", "mlp.adam_step")
    loop_time("mlp.mlp_grads_s", "mlp.mlp_grads")
    loop_time("ad.backward_s", "ad.Tape.backward")
    loop_calls("ad.backward_calls", "ad.Tape.backward")
    d["ad.tape_records"] = ("records/unit", "lower",
                            lambda ix, ops, su: _per(ix.rec.counts[(LOOP, "ad.tape_records")], ops))
    loop_time("model.predict_s", "model.SGNNModel.predict")
    loop_time("model.rigid_project_s", "model.rigid_project")
    loop_calls("model.rigid_project_calls", "model.rigid_project")
    d["model.ransac_inlier_ratio"] = (
        "ratio", "higher",
        lambda ix, ops, su: _per(ix.attr_sum(["model.rigid_project"], "inliers"),
                                 ix.attr_sum(["model.rigid_project"], "fitted")))
    d["model.translation_only_fits"] = (
        "fits/unit", "lower",
        lambda ix, ops, su: _per(ix.attr_sum(["model.rigid_project"], "translation_only"), ops))
    loop_time("baselines.gns_forward_s", "baselines.gns_forward")
    loop_time("training.evaluate_single_step_s", "training.evaluate_single_step")
    loop_time("training.evaluate_s", "training.evaluate")
    setup_time("modelio.save_model_s", "modelio.save_model")
    setup_time("modelio.load_model_s", "modelio.load_model")
    for layer in LOOP_LAYERS:
        d[f"{layer}.self_s"] = ("s/unit", "lower",
                                lambda ix, ops, su, layer=layer: _per(ix.self_by_layer[LOOP][layer], ops))
    for layer in SETUP_LAYERS:
        d[f"{layer}.self_s"] = ("s/setup", "lower",
                                lambda ix, ops, su, layer=layer: _per(ix.self_by_layer[SETUP][layer], su))
    d["trace.spans_per_unit"] = (
        "spans/unit", "lower",
        lambda ix, ops, su: _per(len(ix.by_phase[LOOP]) + ix.rec.counts[(LOOP, "ad.tape_records")], ops))
    # measured by run.py, not from spans
    d["trace.span_cost_us"] = ("us", "lower", None)
    d["trace.overhead_pct"] = ("%", "lower", None)
    return d


DEFINITIONS = _definitions()


def per_layer(recorder, ops: int, setups: int, measured: dict) -> dict:
    """All per-layer metrics; ``measured`` holds those without a span rule."""
    index = SpanIndex(recorder)
    out = {}
    for name, (unit, _, fn) in DEFINITIONS.items():
        value = measured[name] if fn is None else fn(index, ops, setups)
        out[name] = {"value": float(value), "unit": unit}
    return out
