"""Outside-in span recorder for the ``sgnn`` package.

The recorder replaces each public function of the traced modules, at every
module attribute that refers to it (``build_edges`` is reachable as
``sgnn.graph.build_edges``, ``sgnn.training.build_edges``,
``sgnn.model.build_edges`` and ``sgnn.baselines.build_edges``), with a
wrapper that records a span: name, start, end, parent span and the phase
the benchmark was in.  A few methods are wrapped on their class.  Spans stay
in memory until the run ends.  ``Patches.restore`` puts every original back,
so an untraced pass runs the program's own functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# the tape's primitives (``ad.add``, ``ad.gather``, ...) run several hundred
# times per unit of work; a span each would cost about 9 % on rollouts, so
# their time counts as self time of the layer that calls them
TRACED_MODULES = (
    "mlp", "geometry", "graph", "layers", "model",
    "baselines", "scenes", "training", "modelio", "checkpoint",
)
# (module, class, method): methods that carry a layer's work
TRACED_METHODS = (
    ("ad", "Tape", "backward"),
    ("model", "SGNNModel", "predict"),
    ("baselines", "BaselineModel", "predict"),
)
# methods that are only counted, because a span each would cost more than
# the work they do
COUNTED_METHODS = (("ad", "Tape", "record", "ad.tape_records"),)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def _observe_edges(out):
    return {"inter": int(out.inter.shape[0]), "inner": int(out.inner.shape[0]),
            "obj": int(out.obj.shape[0])}


def _observe_fit(out):
    attrs = {"translation_only": bool(out.translation_only)}
    if out.inlier_mask is not None:
        attrs["inliers"] = int(out.inlier_mask.sum())
        attrs["fitted"] = int(out.inlier_mask.shape[0])
    return attrs


OBSERVERS = {"graph.build_edges": _observe_edges, "model.rigid_project": _observe_fit}


class SpanRecorder:
    """Spans as ``[name, start, end, parent, phase, attrs]`` lists.

    Wrappers record only while ``phase`` is set; with ``phase`` None they
    call straight through, which keeps checks and digests out of the trace.
    ``tags`` maps ``id(obj)`` of a first argument to a label stored with the
    span (the benchmark tags each hierarchy stage's params).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.tags: dict[int, str] = {}
        self.phase: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)
        tags = self.tags

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(out)
            elif args and tags and id(args[0]) in tags:
                span[5] = {"tag": tags[id(args[0])]}
            return out

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is not None:
                counts[(self.phase, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap every public function of the traced modules at each name it
        is imported under, and the listed methods on their classes."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "sgnn" or name.startswith("sgnn.")}
        for short in TRACED_MODULES:
            module = package[f"sgnn.{short}"]
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(f"{short}.{fname}", fn)
                for other in package.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            patches.set(other, attr, wrapper)
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(package[f"sgnn.{short}"], cls_name)
            patches.set(cls, method, self.wrap(f"{short}.{cls_name}.{method}", vars(cls)[method]))
        for short, cls_name, method, key in COUNTED_METHODS:
            cls = getattr(package[f"sgnn.{short}"], cls_name)
            patches.set(cls, method, self.counter(key, vars(cls)[method]))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for idx, (name, start, end, parent, phase, attrs) in enumerate(self.spans):
                row = {"id": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "phase": phase}
                if attrs:
                    row["attrs"] = attrs
                f.write(json.dumps(row) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, from a wrapped no-op."""
    recorder = SpanRecorder()
    recorder.phase = "loop"

    def noop():
        return None

    wrapped = recorder.wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / calls


class UnitClock:
    """Timestamps the end of every ``every``-th call of one function: the
    boundary between two units of work (training samples, rollout steps)
    that the program does inside a single public call.  ``pause``, if given,
    is called at every boundary and its time is left out of the intervals."""

    def __init__(self, every: int = 1, pause=None):
        self.every = every
        self.pause = pause
        self.calls = 0
        self.marks: list[tuple[float, float]] = []  # (end of a unit, start of the next)
        self.paused = 0.0

    def wrap(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls += 1
            if self.calls % self.every == 0:
                end = clock()
                if self.pause is not None:
                    self.pause()
                resume = clock()
                self.paused += resume - end
                self.marks.append((end, resume))
            return out

        return wrapper

    def take(self) -> tuple[list[float], float]:
        """Intervals between consecutive marks since the last take, without
        the pauses, and the seconds paused since the last take."""
        marks, self.marks = self.marks, []
        paused, self.paused = self.paused, 0.0
        self.calls = 0
        return [end - resume for (_, resume), (end, _) in zip(marks, marks[1:])], paused
