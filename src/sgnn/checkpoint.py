"""Binary tensor container for parameter checkpoints.

Layout: magic ``SGNN``, format version (u32 LE), then repeated records until
EOF, each record being name length (u32), UTF-8 name, rows (u32), cols (u32)
and a row-major little-endian float64 payload.  Every payload value must be
finite.
"""

from __future__ import annotations

import math
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


class _Reader:
    """Bounds-checked reads at a moving offset into one file's bytes.  A read
    past the end raises ``truncated(offset, what)``, so each format keeps
    its own error type and message."""

    def __init__(self, data: bytes, truncated):
        self.data, self.offset, self.truncated = data, 0, truncated

    def take(self, size: int, what: str) -> bytes:
        if self.offset + size > len(self.data):
            raise self.truncated(self.offset, what)
        self.offset += size
        return self.data[self.offset - size : self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def floats(self, shape: tuple, what: str) -> np.ndarray:
        """A little-endian float64 payload of ``shape``, as native floats."""
        raw = self.take(8 * math.prod(shape), what)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def read_tensors(path) -> dict[str, np.ndarray]:
    cur = _Reader(Path(path).read_bytes(),
                  lambda at, what: CheckpointFormatError(f"{path}: truncated {what} at {at}"))
    if len(cur.data) < 8 or cur.take(4, "magic") != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic")
    (version,) = cur.unpack("<I", "version")
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    out: dict[str, np.ndarray] = {}
    while cur.offset < len(cur.data):
        (name_len,) = cur.unpack("<I", "record header")
        at = cur.offset
        record = cur.take(name_len + 8, "record")  # the name, then rows and cols
        try:
            name = record[:name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(f"{path}: tensor name at {at} is not UTF-8") from None
        out[name] = cur.floats(struct.unpack_from("<II", record, name_len), f"payload for {name!r}")
        if not np.isfinite(out[name]).all():
            raise CheckpointFormatError(f"{path}: tensor {name!r} holds non-finite values")
    return out
