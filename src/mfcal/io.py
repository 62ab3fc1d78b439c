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
    "read_field",
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


def write_field(field) -> bytes:
    """Serialize an array of 2..4 dims as a float64 container."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim not in (2, 3, 4):
        raise ContainerDimsError(f"container holds 2..4 dims, got {arr.ndim}")
    if arr.size == 0:
        raise ContainerDimsError("container dims must all be positive")
    if any(d > 0xFFFFFFFF for d in arr.shape):
        raise ContainerDimsError("dimension exceeds the u32 range")
    header = MAGIC + struct.pack("<BBB", VERSION, 1, arr.ndim)  # dtype code 1: float64
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype="<f8")
    return b"".join((header, memoryview(payload).cast("B")))


def read_field(data: bytes) -> np.ndarray:
    """Parse container bytes back into an ndarray (dtype per the header)."""
    if len(data) < 7 or data[:4] != MAGIC:
        raise ContainerMagicError("bad container magic (expected MFR1)")
    version, code, ndims = struct.unpack_from("<BBB", data, 4)
    if version != VERSION:
        raise ContainerVersionError(f"unsupported container version {version}")
    if code not in _DTYPES:
        raise ContainerDtypeError(f"unsupported dtype code {code}")
    if ndims not in (2, 3, 4):
        raise ContainerDimsError(f"container holds 2..4 dims, got {ndims}")
    offset = 7 + 4 * ndims
    if len(data) < offset:
        raise ContainerDimsError("truncated container header")
    dims = struct.unpack_from(f"<{ndims}I", data, 7)
    if any(d == 0 for d in dims):
        raise ContainerDimsError("container dims must all be positive")
    dtype = _DTYPES[code]
    expected = int(np.prod([int(d) for d in dims], dtype=object)) * dtype.itemsize
    if len(data) - offset != expected:
        raise ContainerDimsError(
            f"payload holds {len(data) - offset} bytes, dims require {expected}"
        )
    return np.frombuffer(data, dtype=dtype, offset=offset).reshape(dims).copy()


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
    """Fixed key order {delta, k, singular_values} for diff-stable files."""
    ordered = {
        "delta": record["delta"],
        "k": record["k"],
        "singular_values": record["singular_values"],
    }
    return json.dumps(ordered) + "\n"
