"""Binary tensor container for parameter checkpoints.

Layout: magic ``SGNN``, format version (u32 LE), then repeated records until
EOF, each record being name length (u32), UTF-8 name, rows (u32), cols (u32)
and a row-major little-endian float64 payload.  Every payload value must be
finite.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointFormatError

MAGIC = b"SGNN"
VERSION = 1


def write_tensors(path, named: list[tuple[str, np.ndarray]]) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for name, tensor in named:
            arr = np.ascontiguousarray(np.atleast_2d(np.asarray(tensor, dtype=np.float64)))
            if arr.ndim != 2:
                raise CheckpointFormatError(f"tensor {name!r} is not 2-D")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            f.write(arr.astype("<f8").tobytes())


def read_tensors(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    out: dict[str, np.ndarray] = {}
    offset = 8
    while offset < len(data):
        if offset + 4 > len(data):
            raise CheckpointFormatError(f"{path}: truncated record header at {offset}")
        (name_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + name_len + 8 > len(data):
            raise CheckpointFormatError(f"{path}: truncated record at {offset}")
        try:
            name = data[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(
                f"{path}: tensor name at {offset} is not UTF-8"
            ) from None
        offset += name_len
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        nbytes = rows * cols * 8
        if offset + nbytes > len(data):
            raise CheckpointFormatError(f"{path}: truncated payload for {name!r} at {offset}")
        out[name] = (
            np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset)
            .reshape(rows, cols)
            .astype(np.float64)
        )
        if not np.isfinite(out[name]).all():
            raise CheckpointFormatError(f"{path}: tensor {name!r} holds non-finite values")
        offset += nbytes
    return out
