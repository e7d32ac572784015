"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tape`` records primitive operations as they execute; ``Tape.backward``
sweeps the records in reverse, accumulating adjoints.  Every operation in
this module accepts either plain ``numpy`` arrays or ``Var`` handles.  With
plain arrays the computation runs eagerly and nothing is recorded, so layer
code is written once and works for both inference and training.

Every primitive computes its output and passes it to ``record`` with its
arguments and a closure ``bwd(g)`` that gives one partial, or None, per
argument.  Constant arguments get no tape variable, and the sweep keeps no
adjoint for them.  Closures capture arrays, shapes and flags, never a
``Var``, which would point back to the tape.

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

def add(a, b):
    av, bv = value_of(a), value_of(b)
    ta, tb = isinstance(a, Var), isinstance(b, Var)
    return record(np.add(av, bv), (a, b), lambda g: (
        _unbroadcast(g, av.shape) if ta else None,
        _unbroadcast(g, bv.shape) if tb else None,
    ))


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    ta, tb = isinstance(a, Var), isinstance(b, Var)
    return record(np.subtract(av, bv), (a, b), lambda g: (
        _unbroadcast(g, av.shape) if ta else None,
        _unbroadcast(-g, bv.shape) if tb else None,
    ))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    ta, tb = isinstance(a, Var), isinstance(b, Var)
    return record(np.multiply(av, bv), (a, b), lambda g: (
        _unbroadcast(g * bv, av.shape) if ta else None,
        _unbroadcast(g * av, bv.shape) if tb else None,
    ))


def div(a, b):
    av, bv = value_of(a), value_of(b)
    ta, tb = isinstance(a, Var), isinstance(b, Var)
    return record(np.divide(av, bv), (a, b), lambda g: (
        _unbroadcast(g / bv, av.shape) if ta else None,
        _unbroadcast(-g * av / (bv * bv), bv.shape) if tb else None,
    ))


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {av.shape} @ {bv.shape}")
    ta, tb = isinstance(a, Var), isinstance(b, Var)
    return record(np.matmul(av, bv), (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape) if ta else None,
        _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape) if tb else None,
    ))


def mlp(x, layers: Sequence[tuple], fold: tuple | None = None):
    """``act(x @ w + b)`` for each ``(w, b, act)`` of ``layers`` in turn (``act``
    in silu, relu, linear; a 1-D ``x`` runs as one row), as one record.

    Each layer runs the numpy operations of a matmul, bias-add and activation
    record in their order, forward and backward, so values and adjoints match
    that chain bit for bit.  The backward walks the layers in reverse and
    drops each one's arrays once its partials are out.  ``fold = (rows,
    cols)``, 0/1 tables (``cols`` may be None), runs it on the first weight
    ``rows @ w`` and last weight and bias ``w @ cols.T``, ``cols @ b``: each
    summed stored entry gets the partial of its sum.
    """
    xv = value_of(x)
    h = xv.reshape(1, -1) if xv.ndim == 1 else xv
    args = [x] + [a for w, b, _ in layers for a in (w, b)]
    wants = [isinstance(a, Var) for a in args]
    values = [[value_of(w), value_of(b), act] for w, b, act in layers]
    rows, cols = fold or (None, None)
    if rows is not None:
        values[0][0] = rows @ values[0][0]
    if cols is not None:
        values[-1][0], values[-1][1] = values[-1][0] @ cols.T, cols @ values[-1][1]
    saved = []  # per layer: input, pre-activation (ReLU: output), SiLU's 1 + e^-x, w, b's shape, act
    for wv, bv, act in values:
        pre = np.matmul(h, wv)
        pre += bv
        d = None
        if act == "silu":  # x / (1 + e^-x); below x = -709.78 e^-x is inf and the SiLU -0.0
            d = np.negative(pre)
            with np.errstate(over="ignore"):
                np.exp(d, out=d)
            d += 1.0
        if any(wants):
            saved.append((h, pre, d, wv, bv.shape, act))
        if act == "silu":
            h = np.divide(pre, d, out=None if any(wants) else d)
        else:  # in place: a ReLU output is > 0 exactly where its input is
            h = np.maximum(pre, 0.0, out=pre) if act == "relu" else pre

    def bwd(g):
        g = g.reshape(h.shape)
        grads = [None] * len(wants)
        lo = max(wants.index(True) - 1, 0) // 2  # the first layer with a partial to give
        y = h  # the output of layer k, which is layer k + 1's input
        for k in range(len(saved) - 1, lo - 1, -1):
            hk, pre, d, wv, bshape, act = saved.pop()
            if act == "silu":  # g (1 + x - y) / d, as sigmoid = 1 / d and x sigmoid = y; pre is free
                t = np.add(1.0, pre, out=pre)
                t -= y
                t /= d  # before g: (1 + x - y) / d is bounded where g (1 + x - y) may overflow
                g = np.multiply(g, t, out=t)
            elif act == "relu":
                g = g * (pre > 0.0)
            del pre, d
            y = hk
            if wants[2 * k + 1]:
                grads[2 * k + 1] = _unbroadcast(np.swapaxes(hk, -1, -2) @ g, wv.shape)
            if wants[2 * k + 2]:
                grads[2 * k + 2] = _unbroadcast(g, bshape)
            if k > lo or wants[0]:
                g = _unbroadcast(g @ np.swapaxes(wv, -1, -2), hk.shape)
        grads[0] = g.reshape(xv.shape) if wants[0] else None
        if rows is not None and wants[1]:
            grads[1] = rows.T @ grads[1]
        if cols is not None and wants[-1]:
            grads[-2], grads[-1] = grads[-2] @ cols, grads[-1] @ cols
        return grads

    return record(h.reshape(-1) if xv.ndim == 1 else h, args, bwd)


# ------------------------------------------------------------- shape plumbing

def reshape(a, shape):
    av = value_of(a)
    return record(av.reshape(tuple(shape)), (a,), lambda g: (g.reshape(av.shape),))


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
    sl = [slice(None)] * av.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def bwd(g):
        out = np.zeros_like(av)
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
