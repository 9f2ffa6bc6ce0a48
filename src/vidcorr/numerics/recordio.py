"""Flat little-endian tensor records.

Record layout: magic ``INOT``, one version byte, one rank byte, the
extents as little-endian uint32, a dtype tag byte (0 = float32,
1 = float64), then the raw values little-endian in C order. Checkpoints
concatenate these records under an index header (see harness.checkpoint).
"""

import struct

import numpy as np

MAGIC = b"INOT"
VERSION = 1

_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def tensor_record_bytes(array):
    """Serialize one numpy array (float32/float64) to a record."""
    arr = np.ascontiguousarray(array)
    if arr.dtype not in _TAG_FOR_KIND:
        raise ValueError(f"tensor records hold float32/float64 only, got {arr.dtype}")
    if arr.ndim > 255:
        raise ValueError(f"rank {arr.ndim} exceeds the single-byte rank field")
    parts = [MAGIC, struct.pack("<BB", VERSION, arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(struct.pack("<B", _TAG_FOR_KIND[arr.dtype]))
    parts.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(order="C"))
    return b"".join(parts)


def parse_tensor_record(buf, offset=0):
    """Read one record from ``buf`` at ``offset``; returns (array, next_offset)."""
    if buf[offset : offset + 4] != MAGIC:
        raise ValueError(f"bad tensor record magic at offset {offset}")
    version, rank = struct.unpack_from("<BB", buf, offset + 4)
    if version != VERSION:
        raise ValueError(f"unsupported tensor record version {version}")
    pos = offset + 6
    shape = struct.unpack_from(f"<{rank}I", buf, pos)
    pos += 4 * rank
    (tag,) = struct.unpack_from("<B", buf, pos)
    pos += 1
    if tag not in _DTYPE_TAGS:
        raise ValueError(f"unknown dtype tag {tag}")
    dtype = _DTYPE_TAGS[tag]
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    nbytes = count * dtype.itemsize
    data = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).reshape(shape)
    return np.ascontiguousarray(data).astype(data.dtype.newbyteorder("="), copy=False), pos + nbytes


def named_list_bytes(items):
    """Serialize an ordered (name, array) iterable: per entry a uint32
    name length, the UTF-8 name, then the tensor record."""
    parts = []
    for name, arr in items:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(tensor_record_bytes(arr))
    return b"".join(parts)


def parse_named_list(buf, offset=0):
    """Inverse of :func:`named_list_bytes`, reading from ``offset`` to
    the end of ``buf``.

    Returns (list of (name, array), next_offset)."""
    out = []
    pos = offset
    while pos < len(buf):
        (n,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        name = buf[pos : pos + n].decode("utf-8")
        pos += n
        arr, pos = parse_tensor_record(buf, pos)
        out.append((name, arr))
    return out, pos
