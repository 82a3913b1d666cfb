"""Binary checkpoint files for named tensors, always stored as float64.

Layout, all little-endian:

    magic  b"CGRU"
    u32    format version (currently 3)
    u32    provenance length in bytes
    bytes  utf-8 provenance: the sorted "key = value" config lines the
           tensors were produced under, joined by newlines
    u32    tensor count
    per tensor, each name once:
        u32    name length in bytes
        bytes  utf-8 name
        u64    rank
        u64[]  dims
        f64[]  row-major payload
    bytes  the 32-byte sha256 of every byte before it

Writing the same tensors and provenance twice produces byte-identical
files. A reader checks the magic and the version, then the digest, and
only then parses, so a file changed after it was written, by as little
as one payload bit, is refused, naming the file. A float32 tensor widens
into the f64 payload exactly; loading into a network narrows each tensor
back to its view's dtype and refuses one that does not survive that
exactly. Output files go through `replacing`, so a failed write leaves
the previous file as it was. There is no reader for version 1, which had
no provenance, or for version 2, which had no digest: such a file is
refused and must be written again.
"""

import hashlib
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import CheckpointError

MAGIC = b"CGRU"
VERSION = 3
_DIGEST = 32        # bytes of the trailing sha256


@contextmanager
def replacing(path, mode: str = "w", **open_kwargs):
    """Open `<path>.tmp` for writing and os.replace it onto path once the
    block succeeds; on an exception the .tmp file is removed instead."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_tensors(path, tensors: dict, provenance=()) -> None:
    head = "\n".join(provenance).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(head))
    blob += head
    blob += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        enc = name.encode("utf-8")
        blob += struct.pack("<I", len(enc))
        blob += enc
        blob += struct.pack("<Q", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.tobytes(order="C")
    blob += hashlib.sha256(blob).digest()
    with replacing(path, "wb") as fh:
        fh.write(bytes(blob))


def load_tensors(path) -> tuple:
    """(provenance lines, tensors by name) of a checkpoint file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    off, end = 4, len(blob)

    def take(n):
        nonlocal off
        if off + n > end:
            raise CheckpointError(f"{path}: truncated at byte {off}")
        out = blob[off:off + n]
        off += n
        return out

    def text(n, what):
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} is not utf-8") from None

    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version} (expected "
            f"{VERSION}); rerun the phase that writes it")
    end -= _DIGEST
    if end < off or hashlib.sha256(blob[:end]).digest() != blob[end:]:
        raise CheckpointError(f"{path}: contents do not match their sha256 "
                              "digest; rerun the phase that writes it")
    (head_len,) = struct.unpack("<I", take(4))
    head = text(head_len, "provenance")
    (count,) = struct.unpack("<I", take(4))
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = text(name_len, "tensor name")
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} is listed twice")
        (rank,) = struct.unpack("<Q", take(8))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank)) if rank else ()
        # a Python int: a header's dims cannot wrap to a small size
        size = math.prod(dims)
        data = np.frombuffer(take(8 * size), dtype="<f8").reshape(dims)
        tensors[name] = data.astype(np.float64)
    if off != end:
        raise CheckpointError(f"{path}: {end - off} trailing bytes")
    return (head.split("\n") if head else []), tensors


def save_network(path, net, provenance=()) -> None:
    save_tensors(path, net.params, provenance)


def load_network(path, net, provenance=()) -> None:
    """Copy a checkpoint's tensors into the views of a same-shaped network.

    The file must have been written under exactly `provenance`; otherwise
    CheckpointError names the file and each "key (stored -> expected)".
    Every tensor must be exactly representable in its view's dtype (a
    float64 file loaded into a float32 network is refused, not rounded);
    otherwise CheckpointError names the file and the tensor, and the
    network is left as it was.
    """
    stored, tensors = load_tensors(path)
    if stored != list(provenance):
        old, new = (dict(line.partition(" = ")[::2] for line in lines)
                    for lines in (stored, provenance))
        changed = ", ".join(f"{k} ({old.get(k, '-')} -> {new.get(k, '-')})"
                            for k in sorted(old.keys() | new.keys())
                            if old.get(k) != new.get(k))
        raise CheckpointError(
            f"{path} was written under another config: {changed}")
    if set(tensors) != set(net.params):
        missing = sorted(set(net.params) - set(tensors))
        extra = sorted(set(tensors) - set(net.params))
        raise CheckpointError(
            f"{path}: param names do not match (missing {missing}, extra {extra})")
    narrowed = {}
    for name, view in net.params.items():
        if tensors[name].shape != view.shape:
            raise CheckpointError(f"{path}: tensor {name} has shape "
                                  f"{tensors[name].shape}, expected {view.shape}")
        with np.errstate(over="ignore"):    # an overflow fails the check
            narrowed[name] = tensors[name].astype(view.dtype, copy=False)
        if not np.array_equal(narrowed[name], tensors[name], equal_nan=True):
            raise CheckpointError(
                f"{path}: tensor {name} does not fit the network's "
                f"{view.dtype} exactly; rerun the phase that writes it")
    for name, view in net.params.items():
        view[...] = narrowed[name]
