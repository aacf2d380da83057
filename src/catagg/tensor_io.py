"""Binary tensor persistence.

Single-tensor format: magic "CATT", u8 dtype tag (0=f32, 1=f64), u8 rank,
u32 little-endian extents, then raw little-endian scalars row-major.

Bundle format (checkpoints, multi-tensor artifacts): magic "CATB",
u32 version, u32 JSON metadata length + UTF-8 JSON, u32 record count,
then per record a u16 name length + UTF-8 name + one CATT record.

Every artifact writer goes through `atomic_write`, so a crash never leaves
a half-written file at the final path.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import threading
from typing import BinaryIO

import numpy as np

from .errors import CheckpointError

__all__ = ["save_tensor", "load_tensor", "write_tensor", "read_tensor",
           "save_bundle", "load_bundle", "atomic_write"]

MAGIC = b"CATT"
BUNDLE_MAGIC = b"CATB"
BUNDLE_VERSION = 1

_TAG_OF = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_OF = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb"):
    """Open a temp file beside `path` that replaces `path` once written.

    If the block raises, the temp file is removed and `path` keeps what it
    held before (or stays absent). Text mode writes UTF-8.
    """
    tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _stream_end(f: BinaryIO) -> int:
    pos = f.tell()
    end = f.seek(0, os.SEEK_END)
    f.seek(pos)
    return end


def _read_exact(f: BinaryIO, n: int, end: int) -> bytes:
    # a header may claim any size: refuse it before allocating for it
    left = end - f.tell()
    if n > left:
        raise CheckpointError(f"truncated tensor file: wanted {n} bytes, got {left}")
    return f.read(n)


def write_tensor(f: BinaryIO, arr: np.ndarray) -> None:
    dt = np.dtype(arr.dtype)
    if dt not in _TAG_OF:
        raise CheckpointError(f"unsupported dtype {dt}; only f32/f64")
    if arr.ndim > 255:
        raise CheckpointError("tensor rank exceeds format limit")
    f.write(MAGIC)
    f.write(struct.pack("<BB", _TAG_OF[dt], arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype=dt.newbyteorder("<")).tobytes())


def read_tensor(f: BinaryIO) -> np.ndarray:
    return _read_tensor(f, _stream_end(f))


def _read_tensor(f: BinaryIO, end: int) -> np.ndarray:
    magic = _read_exact(f, 4, end)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}; expected {MAGIC!r}")
    tag, rank = struct.unpack("<BB", _read_exact(f, 2, end))
    if tag not in _DTYPE_OF:
        raise CheckpointError(f"unknown dtype tag {tag}")
    shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, end))
    dt = _DTYPE_OF[tag]
    raw = _read_exact(f, math.prod(shape) * dt.itemsize, end)
    try:
        arr = np.frombuffer(raw, dtype=dt).reshape(shape)
    except ValueError as e:  # an empty tensor whose extents numpy cannot hold
        raise CheckpointError(f"unreadable tensor shape {shape}: {e}") from None
    # native byte order, writable copy (astype always copies here)
    return arr.astype(dt.newbyteorder("="))


def save_tensor(path, arr: np.ndarray) -> None:
    with atomic_write(path) as f:
        write_tensor(f, arr)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        arr = read_tensor(f)
        if f.read(1):
            raise CheckpointError(f"trailing bytes after tensor in {path}")
        return arr


def save_bundle(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    blob = json.dumps(meta or {}, sort_keys=True).encode()
    with atomic_write(path) as f:
        f.write(BUNDLE_MAGIC)
        f.write(struct.pack("<I", BUNDLE_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            nb = name.encode()
            if len(nb) > 0xFFFF:
                raise CheckpointError(f"record name too long: {name[:40]}...")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            write_tensor(f, arr)


def load_bundle(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        end = _stream_end(f)
        magic = _read_exact(f, 4, end)
        if magic != BUNDLE_MAGIC:
            raise CheckpointError(f"bad bundle magic {magic!r}; expected {BUNDLE_MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, end))
        if version != BUNDLE_VERSION:
            raise CheckpointError(f"bundle version {version} unsupported (want {BUNDLE_VERSION})")
        (mlen,) = struct.unpack("<I", _read_exact(f, 4, end))
        try:
            meta = json.loads(_read_exact(f, mlen, end).decode())
        except (ValueError, RecursionError) as e:  # bad UTF-8, JSON, depth
            raise CheckpointError(f"bundle metadata in {path} is not UTF-8 JSON: {e}") from None
        if not isinstance(meta, dict):
            raise CheckpointError(f"bundle metadata in {path} is not a JSON object")
        (count,) = struct.unpack("<I", _read_exact(f, 4, end))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2, end))
            try:
                name = _read_exact(f, nlen, end).decode()
            except UnicodeDecodeError:
                raise CheckpointError(f"record name in {path} is not UTF-8") from None
            if name in arrays:
                raise CheckpointError(f"duplicate record '{name}'")
            arrays[name] = _read_tensor(f, end)
        if f.read(1):
            raise CheckpointError(f"trailing bytes after bundle in {path}")
        return arrays, meta
