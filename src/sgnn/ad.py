"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tape`` records primitive operations as they execute; ``Tape.backward``
sweeps the records in reverse, accumulating adjoints.  Every operation in
this module accepts either plain ``numpy`` arrays or ``Var`` handles.  With
plain arrays the computation runs eagerly and nothing is recorded, so layer
code is written once and works for both inference and training.

Every primitive computes its output and passes it to ``record`` with its
arguments and a closure ``bwd(g)`` that gives one partial, or None, per
argument.  Constant arguments get no tape variable, and the sweep keeps no
adjoint for them.  Closures capture only what their backward reads (an
operand's shape rather than the operand where the shape is all it reads),
and never a ``Var``, which would point back to the tape.

All values are float64.  A tape is swept once: ``backward`` pops each record
as it reaches it and each intermediate adjoint once it is consumed, so the
forward arrays a closure captured and the adjoints are freed during the sweep,
without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, TapeError

Array = np.ndarray


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Var:
    """A tape-attached value. Do not construct directly; use Tape.var/param."""

    __slots__ = ("value", "tape", "_vid")

    def __init__(self, value: Array, tape: "Tape", vid: int):
        self.value = value
        self.tape = tape
        self._vid = vid

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, vid={self._vid})"


class Grads:
    """Leaf adjoints (parameters and ``Tape.var`` inputs) keyed by variable;
    zeros for variables the loss never saw and for intermediates, whose
    adjoints the sweep drops once consumed."""

    def __init__(self, table: dict):
        self._table = table

    def of(self, var: Var) -> Array:
        g = self._table.get(var._vid)
        if g is None:
            return np.zeros_like(var.value)
        return g


class Tape:
    """Wengert list of primitive ops with per-call state."""

    def __init__(self):
        # (out vid, input vids, bwd) per op; None once swept
        self._records: list[tuple] | None = []
        # id(array) -> (vid, value), not a Var, which would point back to the
        # tape; the value keeps the id from being reused while the tape lives
        self._params: dict[int, tuple[int, Array]] = {}
        self._next_vid = 0

    def _new_var(self, value: Array) -> Var:
        v = Var(value, self, self._next_vid)
        self._next_vid += 1
        return v

    def var(self, value) -> Var:
        """Wrap a leaf value (input) on this tape."""
        return self._new_var(_as_f64(value))

    def param(self, array: Array) -> Var:
        """Wrap a parameter array, cached by identity so every use of the
        same array shares one vid and adjoints accumulate."""
        hit = self._params.get(id(array))
        if hit is not None:
            return Var(hit[1], self, hit[0])
        v = self._new_var(_as_f64(array))
        self._params[id(array)] = (v._vid, v.value)
        return v

    def record(self, out_value: Array, input_vids: Sequence[int | None], bwd: Callable) -> Var:
        """Append a record; ``bwd(g)`` gives a partial or None per input, and
        a constant input's vid is None."""
        out = self._new_var(out_value)
        self._records.append((out._vid, input_vids, bwd))
        return out

    def backward(self, output: Var, output_grad) -> Grads:
        """Reverse sweep from ``output`` seeded with ``output_grad``.  The
        sweep consumes the records: each is popped as it is reached, with its
        output's adjoint, so a tape has one backward and the returned
        ``Grads`` holds leaf adjoints only."""
        if self._records is None:
            raise TapeError("backward called on a tape that was already swept")
        if not self._records:
            raise TapeError("backward called before any forward was recorded")
        if output.tape is not self:
            raise TapeError("output variable does not belong to this tape")
        seed = _as_f64(output_grad)
        if seed.shape != output.value.shape:
            raise ShapeError(
                f"output grad shape {seed.shape} != value shape {output.value.shape}"
            )
        records, self._records = self._records, None
        table: dict[int, Array] = {output._vid: seed}
        while records:
            out_vid, vids, bwd = records.pop()
            g = table.pop(out_vid, None)
            if g is None:
                continue
            for vid, pg in zip(vids, bwd(g)):
                if vid is None or pg is None:
                    continue
                acc = table.get(vid)
                table[vid] = pg if acc is None else acc + pg
        return Grads(table)


def record(out: Array, args: Sequence, bwd: Callable):
    """``out`` as is when no argument is a ``Var``; otherwise the ``Var`` of
    a new record on their tape, where ``bwd(g)`` gives one partial or None
    per argument."""
    for a in args:
        if isinstance(a, Var):
            vids = [v._vid if isinstance(v, Var) else None for v in args]
            return a.tape.record(out, vids, bwd)
    return out


def value_of(x) -> Array:
    """Plain numpy view of a Var or array."""
    return x.value if isinstance(x, Var) else _as_f64(x)


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:  # a matrix's column sums as a matvec take BLAS's fast path
        grad = np.ones(len(grad)) @ grad if grad.ndim == extra + 1 == 2 else grad.sum(
            axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------- arithmetic

def _var_shape(a, av: Array):
    """``av``'s shape when ``a`` is a ``Var``, else None (no partial)."""
    return av.shape if isinstance(a, Var) else None


def add(a, b):
    av, bv = value_of(a), value_of(b)
    sa, sb = _var_shape(a, av), _var_shape(b, bv)
    return record(np.add(av, bv), (a, b), lambda g: (
        None if sa is None else _unbroadcast(g, sa),
        None if sb is None else _unbroadcast(g, sb),
    ))


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    sa, sb = _var_shape(a, av), _var_shape(b, bv)
    return record(np.subtract(av, bv), (a, b), lambda g: (
        None if sa is None else _unbroadcast(g, sa),
        None if sb is None else _unbroadcast(-g, sb),
    ))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    sa, sb = _var_shape(a, av), _var_shape(b, bv)
    ka = None if sb is None else av  # each operand is read only for the other's partial
    kb = None if sa is None else bv
    return record(np.multiply(av, bv), (a, b), lambda g: (
        None if sa is None else _unbroadcast(g * kb, sa),
        None if sb is None else _unbroadcast(g * ka, sb),
    ))


def div(a, b):
    av, bv = value_of(a), value_of(b)
    sa, sb = _var_shape(a, av), _var_shape(b, bv)
    ka = None if sb is None else av  # read only for the divisor's partial
    return record(np.divide(av, bv), (a, b), lambda g: (
        None if sa is None else _unbroadcast(g / bv, sa),
        None if sb is None else _unbroadcast(-g * ka / (bv * bv), sb),
    ))


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {av.shape} @ {bv.shape}")
    sa, sb = _var_shape(a, av), _var_shape(b, bv)
    ka = None if sb is None else av  # each operand is read only for the other's partial
    kb = None if sa is None else bv
    return record(np.matmul(av, bv), (a, b), lambda g: (
        None if sa is None else _unbroadcast(g @ np.swapaxes(kb, -1, -2), sa),
        None if sb is None else _unbroadcast(np.swapaxes(ka, -1, -2) @ g, sb),
    ))


def mlp(x, layers: Sequence[tuple]):
    """``act(x @ w + b)`` for each ``(w, b, act)`` of ``layers`` in turn (``act``
    in silu, relu, linear; a 1-D ``x`` runs as one row), as one record.

    Each layer runs the numpy operations of a matmul, bias-add and activation
    record in their order, forward and backward, so values and adjoints match
    that chain bit for bit.  The record keeps per layer only what its backward
    reads: the input when the weight has a partial, a SiLU's derivative
    factor, a ReLU's output, and nothing below the first layer with a partial
    to give.  The backward walks the layers in reverse and drops each one's
    arrays once its partials are out.
    """
    xv = value_of(x)
    h = xv.reshape(1, -1) if xv.ndim == 1 else xv
    args = [x] + [a for w, b, _ in layers for a in (w, b)]
    wants = [isinstance(a, Var) for a in args]
    # the first layer with a partial to give; with no Var, none is saved
    lo = max(wants.index(True) - 1, 0) // 2 if any(wants) else len(layers)
    values = [(value_of(w), value_of(b), act) for w, b, act in layers]
    saved = []  # per layer from lo: input or None, SiLU factor or ReLU output, w, b's shape, act
    for k, (wv, bv, act) in enumerate(values):
        hk = h
        pre = np.matmul(h, wv)
        pre += bv
        if act == "silu":  # x / (1 + e^-x); below x = -709.78 e^-x is inf and the SiLU -0.0
            d = np.negative(pre)
            with np.errstate(over="ignore"):
                np.exp(d, out=d)
            d += 1.0
            h = np.divide(pre, d, out=None if k >= lo else d)
            if k >= lo:  # (1 + x - y) / d, as sigmoid = 1 / d and x sigmoid = y, in x's buffer
                t = np.add(1.0, pre, out=pre)
                t -= h
                t /= d  # before g: (1 + x - y) / d is bounded where g (1 + x - y) may overflow
            del d
        else:  # in place: a ReLU output is > 0 exactly where its input is
            h = np.maximum(pre, 0.0, out=pre) if act == "relu" else pre
        if k >= lo:
            saved.append((hk if wants[2 * k + 1] else None,
                          pre if act != "linear" else None, wv, bv.shape, act))
    out_shape, x_shape = h.shape, xv.shape

    def bwd(g):
        g = g.reshape(out_shape)
        grads = [None] * len(wants)
        for k in reversed(range(lo, len(wants) // 2)):
            hk, t, wv, bshape, act = saved.pop()
            if act == "silu":  # the factor is read once: g t in its buffer
                g = np.multiply(g, t, out=t)
            elif act == "relu":
                g = g * (t > 0.0)
            del t
            if wants[2 * k + 1]:
                grads[2 * k + 1] = _unbroadcast(np.swapaxes(hk, -1, -2) @ g, wv.shape)
            if wants[2 * k + 2]:
                grads[2 * k + 2] = _unbroadcast(g, bshape)
            del hk
            if k > lo or wants[0]:  # wv is 2-D, so this is already the input's shape
                g = g @ np.swapaxes(wv, -1, -2)
        grads[0] = g.reshape(x_shape) if wants[0] else None
        return grads

    return record(h.reshape(-1) if xv.ndim == 1 else h, args, bwd)


# ------------------------------------------------------------- shape plumbing

def reshape(a, shape):
    av = value_of(a)
    old = av.shape
    return record(av.reshape(tuple(shape)), (a,), lambda g: (g.reshape(old),))


def concat(parts: Sequence, axis: int):
    values = [value_of(p) for p in parts]
    sizes = [v.shape[axis] for v in values]

    def bwd(g):
        offsets = np.cumsum([0] + sizes)
        grads = []
        for k in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[k], offsets[k + 1])
            grads.append(g[tuple(sl)])
        return grads

    return record(np.concatenate(values, axis=axis), parts, bwd)


def narrow(a, axis: int, start: int, length: int):
    """Contiguous slice along one axis."""
    av = value_of(a)
    shape = av.shape
    sl = [slice(None)] * av.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def bwd(g):
        out = np.zeros(shape)
        out[sl] = g
        return (out,)

    return record(av[sl].copy(), (a,), bwd)


def scatter_add(index: np.ndarray, values: Array, rows: int) -> Array:
    """``out[index[k]] += values[k]`` into ``rows`` zero rows, as ``np.add.at``.

    One ``np.bincount`` over the flattened (row, column) bucket of every
    entry.  bincount adds each bucket's weights in input order, so the sums
    round exactly as the sequential ``np.add.at`` does.  Indices must lie in
    ``[0, rows)``.
    """
    tail = values.shape[1:]
    width = int(np.prod(tail, dtype=np.int64))
    buckets = index[:, None] * width + np.arange(width)
    out = np.bincount(buckets.reshape(-1), weights=values.reshape(-1), minlength=rows * width)
    # bincount of an empty input is int64 even with weights
    return out.astype(np.float64, copy=False).reshape((rows,) + tail)


def gather(a, index: np.ndarray):
    """Fancy-index rows (index is a constant int array)."""
    index = np.asarray(index, dtype=np.int64)
    av = value_of(a)
    rows = av.shape[0]
    return record(av[index], (a,), lambda g: (scatter_add(index, g, rows),))


def segment_sum(a, segments: np.ndarray, num_segments: int, divisor=None):
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``segments``,
    then divide bucket k by ``divisor[k]`` when a divisor is given.

    One record; with a divisor it runs the numpy operations of a
    ``segment_sum`` record followed by a ``div`` record, so values and
    adjoints match that pair bit for bit.
    """
    segments = np.asarray(segments, dtype=np.int64)
    out = scatter_add(segments, value_of(a), num_segments)
    if divisor is None:
        return record(out, (a,), lambda g: (g[segments],))
    d = divisor.reshape((num_segments,) + (1,) * (out.ndim - 1))
    return record(out / d, (a,), lambda g: ((g / d)[segments],))


def sum_(a, axis=None, keepdims: bool = False):
    if axis is not None and not isinstance(axis, tuple):
        axis = (axis,)
    av = value_of(a)
    shape = av.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return record(av.sum(axis=axis, keepdims=keepdims), (a,), bwd)
