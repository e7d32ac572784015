"""Model checkpoints on top of the binary tensor container.

The header section is a JSON config stored byte-per-float in a reserved
tensor, followed by the gravity direction; parameter tensors follow, one
pair of weight/bias records per layer per named MLP.
"""

from __future__ import annotations

import json

import numpy as np

from .baselines import BaselineModel, EGNNParams, GNSParams
from .checkpoint import read_tensors, write_tensors
from .errors import CheckpointFormatError
from .geometry import Gravity
from .layers import SompParams
from .mlp import MLP
from .model import SGNNModel

_HEADER_KEY = "header/config_utf8"
_GRAVITY_KEY = "header/gravity_dir"


def _mlp_tensors(name: str, net: MLP) -> list[tuple[str, np.ndarray]]:
    out = []
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        out.append((f"{name}/w{k}", w))
        out.append((f"{name}/b{k}", b.reshape(1, -1)))
    return out


def _mlp_from_tensors(name: str, tensors: dict, activations: list[str]) -> MLP:
    weights, biases = [], []
    k = 0
    while f"{name}/w{k}" in tensors:
        weights.append(tensors[f"{name}/w{k}"].copy())
        biases.append(tensors[f"{name}/b{k}"].reshape(-1).copy())
        k += 1
    if not weights:
        raise CheckpointFormatError(f"no tensors for {name!r}")
    if len(activations) != len(weights):
        raise CheckpointFormatError(f"activation list mismatch for {name!r}")
    return MLP(weights=weights, biases=biases, activations=list(activations))


def _somp_meta(params: SompParams) -> dict:
    return {
        "iterations": params.iterations,
        "msg_channels": params.msg_channels,
        "msg_extra": params.msg_extra,
        "node_channels": params.node_channels,
        "n_scalar": params.n_scalar,
        "use_objects": params.use_objects,
        "aggregate": params.aggregate,
        "normalize": params.normalize,
        "equivariant_only": params.equivariant_only,
    }


_SOMP_MLPS = ("phi_sigma", "phi_eta", "psi_sigma", "psi_eta")
# the multichannel (GMN) baseline keeps its format-v1 tensor names
_GMN_MLPS = {"sigma_msg": "phi_sigma", "sigma_upd": "psi_sigma",
             "eta_msg": "phi_eta", "eta_upd": "psi_eta"}


def _collect(model) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    tensors: list[tuple[str, np.ndarray]] = []
    meta: dict = {
        "variant": model.variant,
        "gravity_mag": model.gravity.magnitude,
        "cutoff": model.cutoff,
        "velocity_scale": model.velocity_scale,
        "mlps": {},
    }

    def add_mlp(name: str, net: MLP):
        meta["mlps"][name] = {"activations": list(net.activations)}
        tensors.extend(_mlp_tensors(name, net))

    if isinstance(model, SGNNModel):
        meta.update(
            stage3_from_stage1=False,  # format v1 key; the third stage reads the frame's states
            no_hierarchy=model.no_hierarchy,
            zero_object_features=model.zero_object_features,
            shared_edges=model.shared_edges,
        )
        stages = {"stage1": model.stage1}
        if not model.no_hierarchy:
            stages["stage2"] = model.stage2
            stages["stage3"] = model.stage3
        meta["stages"] = {k: _somp_meta(v) for k, v in stages.items()}
        for sname, params in stages.items():
            for mname in _SOMP_MLPS:
                add_mlp(f"{sname}/{mname}", getattr(params, mname))
        return meta, tensors

    params = model.params
    if isinstance(params, GNSParams):
        meta["params"] = {"iterations": params.iterations, "msg_dim": params.msg_dim,
                          "n_scalar": params.n_scalar}
        add_mlp("phi", params.phi)
        add_mlp("psi", params.psi)
    elif isinstance(params, EGNNParams):
        meta["params"] = {"iterations": params.iterations, "msg_dim": params.msg_dim,
                          "n_scalar": params.n_scalar, "subequivariant": params.subequivariant}
        for name in ("phi_m", "phi_x", "phi_v", "phi_h", "phi_g"):
            add_mlp(name, getattr(params, name))
    elif isinstance(params, SompParams):
        meta["params"] = {
            "iterations": params.iterations, "msg_channels": params.msg_channels,
            "msg_extra": params.msg_extra, "n_scalar": params.n_scalar,
            "subequivariant": not params.equivariant_only, "normalize": params.normalize,
        }
        for name, attr in _GMN_MLPS.items():
            add_mlp(name, getattr(params, attr))
    else:
        raise CheckpointFormatError(f"cannot serialize params of type {type(params)}")
    return meta, tensors


def save_model(path, model) -> None:
    meta, tensors = _collect(model)
    header = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    records = [
        (_HEADER_KEY, header.astype(np.float64).reshape(1, -1)),
        (_GRAVITY_KEY, model.gravity.direction.reshape(3, 1)),
    ]
    records.extend(tensors)
    write_tensors(path, records)


def _read_header(path, tensors: dict) -> dict:
    if _HEADER_KEY not in tensors or _GRAVITY_KEY not in tensors:
        raise CheckpointFormatError(f"{path}: missing header section")
    raw = tensors[_HEADER_KEY].reshape(-1)
    if not np.array_equal(raw, np.clip(np.round(raw), 0, 255)):
        raise CheckpointFormatError(f"{path}: header holds values that are not bytes")
    try:
        meta = json.loads(bytes(raw.astype(np.uint8)))
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointFormatError(f"{path}: header is not JSON ({err})") from None
    if not isinstance(meta, dict):
        raise CheckpointFormatError(f"{path}: header is not a JSON object")
    return meta


def _check_aggregate(path, cfg: dict) -> None:
    if cfg.get("aggregate", "sum") not in ("sum", "mean"):
        raise CheckpointFormatError(f"{path}: unknown aggregate {cfg['aggregate']!r}")


def load_model(path):
    tensors = read_tensors(path)
    meta = _read_header(path, tensors)
    try:
        return _build_model(path, meta, tensors)
    except KeyError as err:
        raise CheckpointFormatError(f"{path}: header lacks {err}") from None
    except TypeError as err:
        raise CheckpointFormatError(f"{path}: malformed header ({err})") from None


def _build_model(path, meta: dict, tensors: dict):
    gravity = Gravity(
        direction=tensors[_GRAVITY_KEY].reshape(3), magnitude=meta["gravity_mag"]
    )
    acts = {name: info["activations"] for name, info in meta["mlps"].items()}
    variant = meta["variant"]

    if variant == "sgnn":
        if meta["stage3_from_stage1"] is not False:
            raise CheckpointFormatError(f"{path}: stage3_from_stage1 must be false")
        stages = {}
        for sname, smeta in meta["stages"].items():
            _check_aggregate(path, smeta)
            nets = {
                mname: _mlp_from_tensors(f"{sname}/{mname}", tensors, acts[f"{sname}/{mname}"])
                for mname in _SOMP_MLPS
            }
            stages[sname] = SompParams(**nets, **smeta)
        if set(stages) != ({"stage1"} if meta["no_hierarchy"] else {"stage1", "stage2", "stage3"}):
            raise CheckpointFormatError(
                f"{path}: no_hierarchy={meta['no_hierarchy']} disagrees with stages {sorted(stages)}"
            )
        return SGNNModel(
            stage1=stages["stage1"],
            stage2=stages.get("stage2"),
            stage3=stages.get("stage3"),
            gravity=gravity,
            cutoff=meta["cutoff"],
            zero_object_features=meta["zero_object_features"],
            shared_edges=meta["shared_edges"],
            velocity_scale=meta["velocity_scale"],
        )

    p = dict(meta["params"])
    _check_aggregate(path, p)
    if variant == "gns":
        params = GNSParams(
            phi=_mlp_from_tensors("phi", tensors, acts["phi"]),
            psi=_mlp_from_tensors("psi", tensors, acts["psi"]),
            **p,
        )
    elif variant in ("egnn", "egnn_s"):
        params = EGNNParams(
            **{n: _mlp_from_tensors(n, tensors, acts[n])
               for n in ("phi_m", "phi_x", "phi_v", "phi_h", "phi_g")},
            **p,
        )
    elif variant in ("gmn", "gmn_s"):
        params = SompParams(
            **{attr: _mlp_from_tensors(n, tensors, acts[n]) for n, attr in _GMN_MLPS.items()},
            equivariant_only=not p.pop("subequivariant"), use_objects=False, own_velocity=True,
            **p,
        )
    else:
        raise CheckpointFormatError(f"{path}: unknown variant {variant!r}")
    return BaselineModel(variant=variant, params=params, gravity=gravity,
                         cutoff=meta["cutoff"], velocity_scale=meta["velocity_scale"])
