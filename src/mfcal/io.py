"""Bit-exact serialization: field containers, PGM ingestion, CSV/JSON.

The binary field container is versioned and normative:

    magic   4 bytes  b"MFR1"
    version u8       1
    dtype   u8       0 = float32, 1 = float64
    ndims   u8       2, 3, or 4
    dims    ndims x u32, little-endian
    payload row-major values, little-endian

Round trips are bit-exact for float64 payloads.  CSV emitters print 17
significant digits so parsed-back floats are bit-exact too.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .cascade import SpectrumCurve

__all__ = [
    "ContainerError",
    "ContainerMagicError",
    "ContainerVersionError",
    "ContainerDtypeError",
    "ContainerDimsError",
    "PgmError",
    "PgmMagicError",
    "PgmMaxvalError",
    "PgmTruncatedError",
    "write_field",
    "write_field_file",
    "read_field",
    "read_field_file",
    "read_pgm",
    "write_spectrum_csv",
    "write_moments_csv",
    "excite_record_json",
]

MAGIC = b"MFR1"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class ContainerError(ValueError):
    """Malformed or unsupported field container."""


class ContainerMagicError(ContainerError):
    pass


class ContainerVersionError(ContainerError):
    pass


class ContainerDtypeError(ContainerError):
    pass


class ContainerDimsError(ContainerError):
    pass


def _container(field) -> tuple:
    """The header bytes and the little-endian float64 payload array of ``field``."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim not in (2, 3, 4):
        raise ContainerDimsError(f"container holds 2..4 dims, got {arr.ndim}")
    if arr.size == 0:
        raise ContainerDimsError("container dims must all be positive")
    if any(d > 0xFFFFFFFF for d in arr.shape):
        raise ContainerDimsError("dimension exceeds the u32 range")
    header = MAGIC + struct.pack("<BBB", VERSION, 1, arr.ndim)  # dtype code 1: float64
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header, np.ascontiguousarray(arr, dtype="<f8")


def write_field(field) -> bytes:
    """Serialize an array of 2..4 dims as a float64 container."""
    header, payload = _container(field)
    return b"".join((header, memoryview(payload).cast("B")))


def write_field_file(file, field) -> None:
    """Write ``write_field(field)`` to an open binary file without joining its bytes.

    The header goes out first, then the payload straight from the
    array's buffer, so no full-size copy of the container is made.
    """
    header, payload = _container(field)
    file.write(header)
    file.write(memoryview(payload).cast("B"))


_MAX_HEADER = 7 + 4 * 4  # magic, version, dtype, ndims, then up to four u32 dims


def _parse_header(head: bytes, size: int) -> tuple:
    """``(dtype, dims, offset)`` of a ``size``-byte container that starts with ``head``.

    Checks every header field and that the payload after ``offset`` is
    exactly as long as the dims require, so callers allocate only what a
    well-formed container holds.
    """
    if len(head) < 7 or head[:4] != MAGIC:
        raise ContainerMagicError("bad container magic (expected MFR1)")
    version, code, ndims = struct.unpack_from("<BBB", head, 4)
    if version != VERSION:
        raise ContainerVersionError(f"unsupported container version {version}")
    if code not in _DTYPES:
        raise ContainerDtypeError(f"unsupported dtype code {code}")
    if ndims not in (2, 3, 4):
        raise ContainerDimsError(f"container holds 2..4 dims, got {ndims}")
    offset = 7 + 4 * ndims
    if len(head) < offset:
        raise ContainerDimsError("truncated container header")
    dims = struct.unpack_from(f"<{ndims}I", head, 7)
    if any(d == 0 for d in dims):
        raise ContainerDimsError("container dims must all be positive")
    dtype = _DTYPES[code]
    expected = int(np.prod([int(d) for d in dims], dtype=object)) * dtype.itemsize
    if size - offset != expected:
        raise ContainerDimsError(
            f"payload holds {size - offset} bytes, dims require {expected}"
        )
    return dtype, dims, offset


def read_field(data: bytes) -> np.ndarray:
    """Parse container bytes back into an ndarray (dtype per the header)."""
    dtype, dims, offset = _parse_header(data[:_MAX_HEADER], len(data))
    return np.frombuffer(data, dtype=dtype, offset=offset).reshape(dims).copy()


def read_field_file(file) -> np.ndarray:
    """Read a container from an open binary file, from its start, into one array.

    The header and the payload length are checked against the file's
    size before the payload is allocated; the payload is then read
    straight into the returned array (dtype per the header), with no
    copy of the file's bytes.
    """
    size = file.seek(0, os.SEEK_END)
    file.seek(0)
    dtype, dims, offset = _parse_header(file.read(_MAX_HEADER), size)
    field = np.empty(dims, dtype=dtype)
    file.seek(offset)
    if file.readinto(memoryview(field).cast("B")) != field.nbytes:
        raise ContainerDimsError("container payload ended early")
    return field


# ---------------------------------------------------------------------------
# PGM (binary "P5") ingestion


class PgmError(ValueError):
    """Malformed binary PGM stream."""


class PgmMagicError(PgmError):
    pass


class PgmMaxvalError(PgmError):
    pass


class PgmTruncatedError(PgmError):
    pass


def _pgm_tokens(data: bytes, count: int):
    """First ``count`` whitespace-separated header tokens after the magic,
    tolerating '#' comments; returns (tokens, payload offset)."""
    pos = 2
    tokens = []
    while len(tokens) < count:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        if pos == start:
            raise PgmTruncatedError("header ended before all tokens were read")
        tokens.append(data[start:pos])
    if pos >= len(data):
        raise PgmTruncatedError("missing payload after header")
    return tokens, pos + 1  # exactly one whitespace byte separates header and payload


def read_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM into an (H, W) float64 field scaled to [0, 1]."""
    if data[:2] != b"P5":
        raise PgmMagicError("not a binary PGM (P5) stream")
    tokens, offset = _pgm_tokens(data, 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PgmError(f"non-numeric header token: {exc}") from None
    if width < 1 or height < 1:
        raise PgmError("image dimensions must be positive")
    if maxval < 1:
        raise PgmMaxvalError("maxval must be positive")
    if maxval > 65535:
        raise PgmMaxvalError("maxval exceeds 65535")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = width * height * dtype.itemsize
    payload = data[offset : offset + need]
    if len(payload) < need:
        raise PgmTruncatedError(f"payload holds {len(payload)} bytes, need {need}")
    pixels = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return pixels.astype(np.float64) / maxval


# ---------------------------------------------------------------------------
# text emitters


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_spectrum_csv(curve: SpectrumCurve) -> str:
    """``alpha,f`` rows at 17 significant digits, LF-terminated."""
    lines = ["alpha,f"]
    lines += [f"{_fmt(a)},{_fmt(f)}" for a, f in zip(curve.alpha, curve.f)]
    return "\n".join(lines) + "\n"


def write_moments_csv(partition) -> str:
    """``q,tau,alpha,f,one_sided`` rows for a partition-function fit."""
    lines = ["q,tau,alpha,f,one_sided"]
    for q, tau, alpha, f, flag in zip(
        partition.q_values, partition.tau, partition.alpha,
        partition.f, partition.one_sided,
    ):
        lines.append(f"{_fmt(q)},{_fmt(tau)},{_fmt(alpha)},{_fmt(f)},{int(flag)}")
    return "\n".join(lines) + "\n"


def excite_record_json(record: dict) -> str:
    """Fixed key order {delta, k, singular_values} for diff-stable files.

    Strict JSON: a NaN or infinity raises ``ValueError``.
    """
    ordered = {
        "delta": record["delta"],
        "k": record["k"],
        "singular_values": record["singular_values"],
    }
    return json.dumps(ordered, allow_nan=False) + "\n"
