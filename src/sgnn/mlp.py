"""Multilayer perceptrons with Adam state, built on the reverse-mode tape."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad
from .errors import ShapeError, TrainingError

_ACTIVATIONS = {"silu", "relu", "linear"}


@dataclass
class MLP:
    """Dense layers with per-layer activation tags and Adam moments, each one
    flat float64 buffer over ``parameters()``.  Weight k has shape (in_k,
    out_k); consecutive layers must chain."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
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
        if self.adam_m is None:
            size = sum(p.size for p in self.parameters())
            self.adam_m, self.adam_v = np.zeros(size), np.zeros(size)

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
    if min(dims) < 1:
        raise ShapeError(f"every layer dim must be >= 1, got {dims}")
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

    With a tape (or a Var input) the call is one ``ad.mlp`` record; parameter
    arrays are wrapped through ``tape.param`` so adjoints accumulate across
    shared uses of the same MLP.
    """
    if tape is None and isinstance(x, ad.Var):
        tape = x.tape
    xv = ad.value_of(x)
    if xv.shape[-1] != params.in_dim:
        raise ShapeError(f"input dim {xv.shape[-1]} != first layer in dim {params.in_dim}")
    return ad.mlp(x, mlp_layers(params, tape))


def mlp_layers(params: MLP, tape: ad.Tape | None = None) -> list[tuple]:
    """The ``(w, b, act)`` list ``ad.mlp`` runs, parameters wrapped through
    ``tape.param`` when a tape is given."""
    layers = zip(params.weights, params.biases, params.activations)
    if tape is not None:
        return [(tape.param(w), tape.param(b), act) for w, b, act in layers]
    return list(layers)


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
    """Bias-corrected Adam update, in place, on the flat moment buffers.
    Returns ``params``; a rejected gradient leaves it unchanged."""
    tensors = params.parameters()
    shapes = [p.shape for p in tensors]
    if [g.shape for g in grads] != shapes:
        raise ShapeError(f"gradient shapes {[g.shape for g in grads]} != parameter shapes {shapes}")
    g = np.concatenate([g.reshape(-1) for g in grads])
    if not np.isfinite(g).all():
        idx = next(k for k, gk in enumerate(grads) if not np.isfinite(gk).all())
        raise TrainingError(f"non-finite gradient for parameter index {idx}")
    b1, b2 = betas
    params.step += 1
    m, v = params.adam_m, params.adam_v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    update = lr * (m / (1.0 - b1**params.step)) / (np.sqrt(v / (1.0 - b2**params.step)) + eps)
    start = 0
    for p in tensors:
        p -= update[start:(start := start + p.size)].reshape(p.shape)
    return params
