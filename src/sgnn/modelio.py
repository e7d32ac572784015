"""Model checkpoints on top of the binary tensor container.

The header section is a JSON config stored byte-per-float in a reserved
tensor, followed by the gravity direction; parameter tensors follow, one
pair of weight/bias records per layer per named MLP.  ``FAMILIES``, the key
table, drives both ``save_model`` and ``load_model``: a file must hold exactly
the keys and tensors it names.  Only format 2 loads: format 1 (no ``format``
key), which stored each sigma on the square layout, is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from inspect import signature
from typing import Callable

import numpy as np

from .baselines import BaselineModel, EGNNParams, GNSParams
from .baselines import make_egnn_params, make_gmn_params, make_gns_params
from .checkpoint import read_tensors, write_tensors
from .errors import CheckpointFormatError, SgnnError, ShapeError
from .geometry import Gravity
from .layers import NODE_CHANNELS, SompParams, make_somp_params
from .mlp import _ACTIVATIONS, MLP
from .model import SGNNModel

_HEADER_KEY = "header/config_utf8"
_GRAVITY_KEY = "header/gravity_dir"


@dataclass(frozen=True)
class Family:
    """How one params class is stored."""

    cls: type
    make: Callable  # the constructor whose MLP shapes a stored file must match
    keys: tuple[str, ...]  # header keys, in written order
    mlps: dict[str, str]  # stored MLP name -> attribute
    fixed: dict = field(default_factory=dict)  # fields the variant fixes, so not written
    negated: dict = field(default_factory=dict)  # header key -> field it stores negated

    def header(self, params) -> dict:
        return {k: not getattr(params, self.negated[k]) if k in self.negated
                else getattr(params, k) for k in self.keys}


_STAGE = Family(SompParams, make_somp_params,
                ("iterations", "msg_channels", "msg_extra", "node_channels", "n_scalar",
                 "use_objects", "aggregate", "normalize", "equivariant_only"),
                {n: n for n in ("phi_sigma", "phi_eta", "psi_sigma", "psi_eta")},
                fixed={"own_velocity": False})
_EGNN = Family(EGNNParams, make_egnn_params, ("iterations", "msg_dim", "n_scalar", "subequivariant"),
               {n: n for n in ("phi_m", "phi_x", "phi_v", "phi_h", "phi_g")})
# the multichannel (GMN) baseline keeps its first tensor names
_GMN = Family(SompParams, make_gmn_params,
              ("iterations", "msg_channels", "msg_extra", "n_scalar", "subequivariant", "normalize"),
              {"sigma_msg": "phi_sigma", "sigma_upd": "psi_sigma",
               "eta_msg": "phi_eta", "eta_upd": "psi_eta"},
              fixed={"use_objects": False, "own_velocity": True, "node_channels": NODE_CHANNELS},
              negated={"subequivariant": "equivariant_only"})
# Baseline headers hold no `aggregate`, so baselines load with "sum".
FAMILIES = {"sgnn": _STAGE, "egnn": _EGNN, "egnn_s": _EGNN, "gmn": _GMN, "gmn_s": _GMN,
            "gns": Family(GNSParams, make_gns_params, ("iterations", "msg_dim", "n_scalar"),
                          {"phi": "phi", "psi": "psi"})}
FORMAT = 2
_TOP = {"variant": str, "gravity_mag": float, "cutoff": float, "velocity_scale": float, "mlps": dict}
_SGNN_TOP = {"no_hierarchy": bool, "zero_object_features": bool, "shared_edges": bool,
             "stages": dict}


def save_model(path, model) -> None:
    fam = FAMILIES[model.variant]
    meta: dict = {"format": FORMAT, "variant": model.variant,
                  "gravity_mag": model.gravity.magnitude, "cutoff": model.cutoff,
                  "velocity_scale": model.velocity_scale, "mlps": {}}
    if isinstance(model, SGNNModel):
        names = ("stage1",) if model.no_hierarchy else ("stage1", "stage2", "stage3")
        stages = {k: getattr(model, k) for k in names}
        meta.update(no_hierarchy=model.no_hierarchy, zero_object_features=model.zero_object_features,
                    shared_edges=model.shared_edges,
                    stages={k: fam.header(v) for k, v in stages.items()})
        parts = {f"{k}/": v for k, v in stages.items()}
    else:
        meta["params"] = fam.header(model.params)
        parts = {"": model.params}
    tensors = []
    for prefix, params in parts.items():
        for name, attr in fam.mlps.items():
            net = getattr(params, attr)
            meta["mlps"][prefix + name] = {"activations": list(net.activations)}
            for k, (w, b) in enumerate(zip(net.weights, net.biases)):
                tensors += [(f"{prefix}{name}/w{k}", w), (f"{prefix}{name}/b{k}", b.reshape(1, -1))]
    header = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    write_tensors(path, [(_HEADER_KEY, header.astype(np.float64).reshape(1, -1)),
                         (_GRAVITY_KEY, model.gravity.direction.reshape(3, 1)), *tensors])


def _check_keys(path, where: str, cfg, types: dict) -> None:
    """Exactly the keys of ``types``, each of its JSON type, and no negative count."""
    if type(cfg) is not dict:
        raise CheckpointFormatError(f"{path}: {where} is not a JSON object")
    missing, extra = sorted(types.keys() - cfg.keys()), sorted(cfg.keys() - types.keys())
    if missing or extra:
        raise CheckpointFormatError(f"{path}: {where} lacks keys {missing}, has extra {extra}")
    for key, want in types.items():  # a float key takes any number; a bool is no int
        typed = type(cfg[key]) in ((int, float) if want is float else (want,))
        if not typed or (want is int and cfg[key] < 0):
            raise CheckpointFormatError(f"{path}: {where}.{key} must be a JSON {want.__name__}"
                                        f"{' >= 0' if want is int else ''}, got {cfg[key]!r}")


def _load_params(path, where: str, fam: Family, cfg, prefix: str, tensors, mlps):
    """One params object; its MLPs must have the shapes ``fam.make`` allocates."""
    defaults = {f.name: f.default for f in fields(fam.cls)}
    _check_keys(path, where, cfg, {k: type(defaults[fam.negated.get(k, k)]) for k in fam.keys})
    for key, allowed in (("aggregate", ("sum", "mean")), ("node_channels", (NODE_CHANNELS,))):
        if cfg.get(key, allowed[0]) not in allowed:  # the layer runs only these
            raise CheckpointFormatError(f"{path}: {where}.{key} {cfg[key]!r} is not one of "
                                        f"{list(allowed)}")
    hidden = tensors[f"{prefix}{next(iter(fam.mlps))}/w0"].shape[1]
    accepted = signature(fam.make).parameters
    try:
        template = fam.make(np.random.default_rng(0), hidden=hidden,
                            **{k: v for k, v in cfg.items() if k in accepted})
    except SgnnError as err:
        raise CheckpointFormatError(f"{path}: {where} has dims no model allocates ({err})") from None

    nets = {}
    for name, attr in fam.mlps.items():
        key, acts = prefix + name, mlps[prefix + name]["activations"]
        ws, bs = ([tensors[f"{key}/{t}{k}"] for k in range(len(acts))] for t in "wb")
        try:  # each bias is stored as one row
            nets[attr] = MLP(ws, [b[0] if b.shape[0] == 1 else b for b in bs], list(acts))
        except ShapeError as err:
            raise CheckpointFormatError(f"{path}: MLP {key} has shapes "
                                        f"{[a.shape for a in ws + bs]} ({err})") from None
    params = fam.cls(**nets, **fam.fixed, **{fam.negated.get(k, k): not v if k in fam.negated
                                             else v for k, v in cfg.items()})
    for name, attr in fam.mlps.items():
        got, want = ([a.shape for a in getattr(p, attr).parameters()] for p in (params, template))
        if got != want:
            raise CheckpointFormatError(f"{path}: MLP {prefix}{name} has shapes {got}, not those "
                                        f"of {where} at hidden width {hidden}")
    return params


def load_model(path):
    tensors = read_tensors(path)
    if _HEADER_KEY not in tensors or _GRAVITY_KEY not in tensors:
        raise CheckpointFormatError(f"{path}: missing header section")
    raw = tensors[_HEADER_KEY].reshape(-1)
    if not np.array_equal(raw, np.clip(np.round(raw), 0, 255)):
        raise CheckpointFormatError(f"{path}: header holds values that are not bytes")
    try:
        meta = json.loads(bytes(raw.astype(np.uint8)))
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointFormatError(f"{path}: header is not JSON ({err})") from None
    variant = meta.get("variant") if type(meta) is dict else None
    if type(variant) is not str or variant not in FAMILIES:
        raise CheckpointFormatError(f"{path}: unknown variant {variant!r}")
    version = meta.pop("format", 1)  # format 1 wrote no format key
    if type(version) is int and version == 1:
        raise CheckpointFormatError(f"{path}: format 1 checkpoints are no longer read; "
                                    f"only format {FORMAT} loads")
    if type(version) is not int or version != FORMAT:
        raise CheckpointFormatError(f"{path}: unknown header.format {version!r}")
    fam, sgnn = FAMILIES[variant], variant == "sgnn"
    _check_keys(path, "header", meta, {**_TOP, **(_SGNN_TOP if sgnn else {"params": dict})})
    for key in ("cutoff", "velocity_scale"):
        if not 0 < meta[key] < np.inf:  # NaN, which Python's json reads, fails too
            raise CheckpointFormatError(f"{path}: header.{key} must be finite and > 0, "
                                        f"got {meta[key]!r}")
    if sgnn:
        names = ("stage1",) if meta["no_hierarchy"] else ("stage1", "stage2", "stage3")
        if set(meta["stages"]) != set(names):
            raise CheckpointFormatError(f"{path}: no_hierarchy={meta['no_hierarchy']} "
                                        f"disagrees with stages {sorted(meta['stages'])}")
        cfgs = {f"{s}/": (f"stages.{s}", meta["stages"][s]) for s in names}
    else:
        cfgs = {"": ("params", meta["params"])}
    mlps = meta["mlps"]
    _check_keys(path, "mlps", mlps, {p + n: dict for p in cfgs for n in fam.mlps})
    for name, info in mlps.items():
        _check_keys(path, f"mlps.{name}", info, {"activations": list})
        if not info["activations"] or any(type(a) is not str or a not in _ACTIVATIONS
                                          for a in info["activations"]):
            raise CheckpointFormatError(f"{path}: mlps.{name}.activations is not a "
                                        f"non-empty list of {sorted(_ACTIVATIONS)}")
    want = {_HEADER_KEY, _GRAVITY_KEY} | {f"{name}/{wb}{k}" for name, info in mlps.items()
                                          for k in range(len(info["activations"])) for wb in "wb"}
    if set(tensors) != want:
        raise CheckpointFormatError(f"{path}: tensors lack {sorted(want - set(tensors))}, "
                                    f"have extra {sorted(set(tensors) - want)}")
    params = {p: _load_params(path, where, fam, cfg, p, tensors, mlps)
              for p, (where, cfg) in cfgs.items()}
    common = dict(cutoff=meta["cutoff"], velocity_scale=meta["velocity_scale"],
                  gravity=Gravity(tensors[_GRAVITY_KEY].reshape(-1), meta["gravity_mag"]))
    if not sgnn:
        return BaselineModel(variant=variant, params=params[""], **common)
    return SGNNModel(params["stage1/"], params.get("stage2/"), params.get("stage3/"), **common,
                     **{k: meta[k] for k in ("zero_object_features", "shared_edges")})
