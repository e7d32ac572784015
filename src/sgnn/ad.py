"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tape`` records primitive operations as they execute; ``Tape.backward``
sweeps the records in reverse, accumulating adjoints.  Every operation in
this module accepts either plain ``numpy`` arrays or ``Var`` handles.  With
plain arrays the computation runs eagerly and nothing is recorded, so layer
code is written once and works for both inference and training.

All values are float64.  A tape is swept once: ``backward`` drops its
records, so the intermediates are freed as soon as the caller lets go of the
tape, without waiting for the cyclic garbage collector.
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


class _Record:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out, inputs, bwd):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class Grads:
    """Adjoints keyed by variable; zeros for variables the loss never saw."""

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
        self._records: list[_Record] | None = []  # None once swept
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

    def record(self, out_value: Array, inputs: Sequence[Var], bwd: Callable) -> Var:
        """Append a record; ``bwd(g, *inputs, out)`` gives a partial or None per input."""
        out = self._new_var(out_value)
        self._records.append(_Record(out, tuple(inputs), bwd))
        return out

    def backward(self, output: Var, output_grad) -> Grads:
        """Reverse sweep from ``output`` seeded with ``output_grad``.  The
        sweep consumes the records: a tape has one backward."""
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
        table: dict[int, Array] = {output._vid: seed}
        for rec in reversed(self._records):
            g = table.get(rec.out._vid)
            if g is None:
                continue
            input_values = [v.value for v in rec.inputs]
            partials = rec.bwd(g, *input_values, rec.out.value)
            for var, pg in zip(rec.inputs, partials):
                if pg is None:
                    continue
                acc = table.get(var._vid)
                table[var._vid] = pg if acc is None else acc + pg
        self._records = None
        return Grads(table)


def _tape_of(*args) -> Tape | None:
    for a in args:
        if isinstance(a, Var):
            return a.tape
    return None


def _value(x) -> Array:
    return x.value if isinstance(x, Var) else _as_f64(x)


def _wrap(x, tape: Tape) -> Var:
    return x if isinstance(x, Var) else tape.var(x)


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(a, b, fwd, bwd):
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    out = fwd(av, bv)
    if tape is None:
        return out
    va, vb = _wrap(a, tape), _wrap(b, tape)
    return tape.record(out, (va, vb), bwd)


def _unary(a, fwd, bwd):
    tape = _tape_of(a)
    av = _value(a)
    out = fwd(av)
    if tape is None:
        return out
    return tape.record(out, (_wrap(a, tape),), bwd)


# ---------------------------------------------------------------- arithmetic

def add(a, b):
    return _binary(
        a, b, np.add,
        lambda g, av, bv, ov: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)),
    )


def sub(a, b):
    return _binary(
        a, b, np.subtract,
        lambda g, av, bv, ov: (_unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)),
    )


def mul(a, b):
    return _binary(
        a, b, np.multiply,
        lambda g, av, bv, ov: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)),
    )


def div(a, b):
    return _binary(
        a, b, np.divide,
        lambda g, av, bv, ov: (
            _unbroadcast(g / bv, av.shape),
            _unbroadcast(-g * av / (bv * bv), bv.shape),
        ),
    )


def matmul(a, b):
    av, bv = _value(a), _value(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {av.shape} @ {bv.shape}")

    def bwd(g, av, bv, ov):
        ga = g @ np.swapaxes(bv, -1, -2)
        gb = np.swapaxes(av, -1, -2) @ g
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return _binary(a, b, np.matmul, bwd)


def sqrt(a):
    def bwd(g, av, ov):
        return (g * (0.5 / ov),)

    return _unary(a, np.sqrt, bwd)


def _sigmoid(x: Array) -> Array:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both computed
    # densely: the exponent is never positive, so exp cannot overflow.
    # -np.abs(x) would set the sign bit of a NaN; this keeps NaN bits too.
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e)


def silu(a):
    def fwd(av):
        return av * _sigmoid(av)

    def bwd(g, av, ov):
        s = _sigmoid(av)
        return (g * (s * (1.0 + av * (1.0 - s))),)

    return _unary(a, fwd, bwd)


def relu(a):
    def bwd(g, av, ov):
        return (g * (av > 0.0),)

    return _unary(a, lambda av: np.maximum(av, 0.0), bwd)


def dense(x, w, b, act: str):
    """``act(x @ w + b)`` for a 2-D ``w`` and ``act`` in silu, relu, linear.

    One record that runs the numpy operations of the matmul, add and
    activation records in their order, forward and backward, so values and
    adjoints match that chain bit for bit.  A 1-D ``x`` runs as one row.  The
    SiLU keeps its forward sigmoid for the backward pass.
    """
    xv, wv, bv = _value(x), _value(w), _value(b)
    x2 = xv.reshape(1, -1) if xv.ndim == 1 else xv
    if x2.shape[-1] != wv.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {x2.shape} @ {wv.shape}")
    pre = np.add(np.matmul(x2, wv), bv)
    tape = _tape_of(x, w, b)
    if act == "silu" and tape is None:
        out = pre * _sigmoid(pre)  # numpy reuses the sigmoid temporary; a tape keeps it
    elif act == "silu":
        s = _sigmoid(pre)
        out = pre * s
    elif act == "relu":
        out = np.maximum(pre, 0.0)
    else:
        out = pre
    out = out.reshape(-1) if xv.ndim == 1 else out
    if tape is None:
        return out

    def bwd(g, *_):
        g = g.reshape(pre.shape)
        if act == "silu":
            g = g * (s * (1.0 + pre * (1.0 - s)))
        elif act == "relu":
            g = g * (pre > 0.0)
        gx = _unbroadcast(g @ np.swapaxes(wv, -1, -2), x2.shape).reshape(xv.shape)
        gw = _unbroadcast(np.swapaxes(x2, -1, -2) @ g, wv.shape)
        return gx, gw, _unbroadcast(g, bv.shape)

    return tape.record(out, (_wrap(x, tape), _wrap(w, tape), _wrap(b, tape)), bwd)


# ------------------------------------------------------------- shape plumbing

def reshape(a, shape):
    shape = tuple(shape)

    def bwd(g, av, ov):
        return (g.reshape(av.shape),)

    return _unary(a, lambda av: av.reshape(shape), bwd)


def swap_last2(a):
    def fwd(av):
        return np.swapaxes(av, -1, -2)

    return _unary(a, fwd, lambda g, av, ov: (np.swapaxes(g, -1, -2),))


def concat(parts: Sequence, axis: int):
    tape = _tape_of(*parts)
    values = [_value(p) for p in parts]
    sizes = [v.shape[axis] for v in values]

    out = np.concatenate(values, axis=axis)
    if tape is None:
        return out

    offsets = np.cumsum([0] + sizes)

    def bwd(g, *rest):
        grads = []
        for k in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[k], offsets[k + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return tape.record(out, [_wrap(p, tape) for p in parts], bwd)


def narrow(a, axis: int, start: int, length: int):
    """Contiguous slice along one axis."""

    def make_slicer(ndim):
        sl = [slice(None)] * ndim
        sl[axis] = slice(start, start + length)
        return tuple(sl)

    def fwd(av):
        return av[make_slicer(av.ndim)].copy()

    def bwd(g, av, ov):
        out = np.zeros_like(av)
        out[make_slicer(av.ndim)] = g
        return (out,)

    return _unary(a, fwd, bwd)


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

    def fwd(av):
        return av[index]

    def bwd(g, av, ov):
        return (scatter_add(index, g, av.shape[0]),)

    return _unary(a, fwd, bwd)


def segment_sum(a, segments: np.ndarray, num_segments: int):
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``segments``."""
    segments = np.asarray(segments, dtype=np.int64)

    def fwd(av):
        return scatter_add(segments, av, num_segments)

    def bwd(g, av, ov):
        return (g[segments],)

    return _unary(a, fwd, bwd)


def sum_(a, axis=None, keepdims: bool = False):
    if axis is not None and not isinstance(axis, tuple):
        axis = (axis,)

    def fwd(av):
        return av.sum(axis=axis, keepdims=keepdims)

    def bwd(g, av, ov):
        if axis is None:
            return (np.broadcast_to(g, av.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, av.shape).copy(),)

    return _unary(a, fwd, bwd)


def value_of(x) -> Array:
    """Plain numpy view of a Var or array."""
    return _value(x)
