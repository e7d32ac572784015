"""Multilayer perceptrons with Adam state, built on the reverse-mode tape."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ad
from .errors import ShapeError, TrainingError

_ACTIVATIONS = {"silu", "relu", "linear"}


@dataclass
class MLP:
    """Dense layers with per-layer activation tags and Adam moment buffers.

    Weight k has shape (in_k, out_k); consecutive layers must chain.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    adam_m: list[np.ndarray] = field(default_factory=list)
    adam_v: list[np.ndarray] = field(default_factory=list)
    step: int = 0

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("layer lists must have equal length")
        for k, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ShapeError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if act not in _ACTIVATIONS:
                raise ShapeError(f"layer {k}: unknown activation {act!r}")
            if k > 0 and self.weights[k - 1].shape[1] != w.shape[0]:
                raise ShapeError(
                    f"layer {k - 1} out dim {self.weights[k - 1].shape[1]} != "
                    f"layer {k} in dim {w.shape[0]}"
                )
        if not self.adam_m:
            self.adam_m = [np.zeros_like(w) for w in self.weights] + [
                np.zeros_like(b) for b in self.biases
            ]
            self.adam_v = [np.zeros_like(w) for w in self.weights] + [
                np.zeros_like(b) for b in self.biases
            ]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list in the same order as the Adam buffers."""
        return list(self.weights) + list(self.biases)


def mlp_init(
    rng: np.random.Generator,
    dims: list[int],
    activation: str = "silu",
    zero_last: bool = False,
) -> MLP:
    """Xavier-uniform initialization; hidden layers use ``activation``, the
    final layer is linear.  ``zero_last`` zeroes the final layer so the block
    starts as a no-op inside residual updates."""
    if len(dims) < 2:
        raise ShapeError("need at least input and output dims")
    weights, biases, acts = [], [], []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        last = k == len(dims) - 2
        if last and zero_last:
            w = np.zeros((fan_in, fan_out))
        weights.append(w)
        biases.append(b)
        acts.append("linear" if last else activation)
    return MLP(weights=weights, biases=biases, activations=acts)


def mlp_forward(params: MLP, x, tape: ad.Tape | None = None):
    """Apply the network to ``x`` of shape (..., in_dim).

    With a tape (or a Var input) the call is recorded for backprop; parameter
    arrays are wrapped through ``tape.param`` so adjoints accumulate across
    shared uses of the same MLP.
    """
    if tape is None and isinstance(x, ad.Var):
        tape = x.tape
    xv = ad.value_of(x)
    if xv.shape[-1] != params.in_dim:
        raise ShapeError(f"input dim {xv.shape[-1]} != first layer in dim {params.in_dim}")
    for w, b, act in zip(params.weights, params.biases, params.activations):
        if tape is not None:
            w, b = tape.param(w), tape.param(b)
        x = ad.dense(x, w, b, act)
    return x


def mlp_grads(tape: ad.Tape, grads: ad.Grads, params: MLP) -> list[np.ndarray]:
    """Collect adjoints for every parameter of ``params`` (zeros if unused),
    ordered like ``params.parameters()``.  Works on a swept tape."""
    return [grads.of(tape.param(arr)) for arr in params.parameters()]


def adam_step(
    params: MLP,
    grads: list[np.ndarray],
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> MLP:
    """Bias-corrected Adam update, in place. Returns ``params``."""
    tensors = params.parameters()
    if len(grads) != len(tensors):
        raise ShapeError(f"expected {len(tensors)} gradients, got {len(grads)}")
    b1, b2 = betas
    params.step += 1
    t = params.step
    for idx, (p, g) in enumerate(zip(tensors, grads)):
        if p.shape != g.shape:
            raise ShapeError(f"grad {idx} shape {g.shape} != param shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter index {idx}")
        m = params.adam_m[idx]
        v = params.adam_v[idx]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params
