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
import math
import os
import stat
import struct
from contextlib import contextmanager
from io import BytesIO

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
    "write_file",
    "write_field",
    "write_field_file",
    "read_field",
    "read_field_file",
    "ContainerRows",
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


def _header(shape) -> bytes:
    """The header of a float64 container of ``shape``: 2..4 positive dims, each a u32."""
    if len(shape) not in (2, 3, 4):
        raise ContainerDimsError(f"container holds 2..4 dims, got {len(shape)}")
    if 0 in shape:
        raise ContainerDimsError("container dims must all be positive")
    if any(d > 0xFFFFFFFF for d in shape):
        raise ContainerDimsError("dimension exceeds the u32 range")
    header = MAGIC + struct.pack("<BBB", VERSION, 1, len(shape))  # dtype code 1: float64
    return header + struct.pack(f"<{len(shape)}I", *shape)


def _container(field) -> tuple:
    """The header bytes and the little-endian float64 payload array of ``field``."""
    arr = np.asarray(field, dtype=np.float64)
    return _header(arr.shape), np.ascontiguousarray(arr, dtype="<f8")


def write_field(field) -> bytes:
    """Serialize an array of 2..4 dims as a float64 container."""
    header, payload = _container(field)
    return b"".join((header, memoryview(payload).cast("B")))


def _no_truncate(path, flags: int) -> int:
    """``os.open`` without ``O_TRUNC``: an existing file keeps its blocks until rewritten."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_file(path, body, header: bytes = b"") -> None:
    """Write ``header`` and then each buffer of the iterable ``body`` to ``path``.

    On a regular file, zeros the length of ``header`` go first, then the
    ``body`` buffers in order, then the file is cut to its new length,
    and only then is ``header`` written, so an existing file is
    rewritten in place.  Truncating a large file to zero and refilling
    it costs several times more than writing over its blocks.  ``body``
    may be a generator: each buffer is written before the next is asked
    for, so the body is never held whole.  A non-regular target
    (``/dev/null``, a pipe) gets plain sequential writes, with no seek
    or truncate.
    """
    with open(path, "wb", opener=_no_truncate) as file:
        regular = stat.S_ISREG(os.fstat(file.fileno()).st_mode)
        file.write(bytes(len(header)) if regular else header)
        for buffer in body:
            file.write(buffer)
        if regular:
            file.truncate()
            file.seek(0)
            file.write(header)


def write_field_file(path, field, shape=None) -> None:
    """Write the float64 container of ``field`` to ``path`` without joining its bytes.

    ``field`` is an array of 2..4 dims, or, with the field's ``shape``,
    an iterable of arrays that hold its values in row-major order, such
    as the row blocks of ``cascade.product_rows``; the header is built
    from the shape, and the field is then never held whole.  The payload
    goes out straight from each array's buffer, so no full-size copy of
    the container is made.  An existing file is rewritten in place and
    cut to its new length (see ``write_file``).  The header is written
    last, so a write that fails part way, a block that raises included,
    leaves a zeroed magic that every reader rejects with
    ``ContainerMagicError``, never an old header over a mixed payload.
    That holds for errors raised while writing, not for a power loss:
    nothing forces the payload to disk before the header.
    """
    if shape is None:
        header, payload = _container(field)
        blocks = (payload,)
    else:
        header = _header(tuple(shape))
        blocks = (np.ascontiguousarray(block, dtype="<f8") for block in field)
    write_file(path, (memoryview(block).cast("B") for block in blocks), header)


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
    """Parse container bytes back into an ndarray: :func:`read_field_file` over the bytes."""
    return read_field_file(BytesIO(data))


def _read_header(file) -> tuple:
    """``(dtype, dims, offset)`` of the container in an open binary file, checked against its size."""
    size = file.seek(0, os.SEEK_END)
    file.seek(0)
    return _parse_header(file.read(_MAX_HEADER), size)


def read_field_file(file) -> np.ndarray:
    """Read a container from an open binary file, from its start, into one array.

    The header and the payload length are checked against the file's
    size before the payload is allocated; the payload is then read
    straight into the returned array (dtype per the header), with no
    copy of the file's bytes.
    """
    dtype, dims, offset = _read_header(file)
    field = np.empty(dims, dtype=dtype)
    file.seek(offset)
    if file.readinto(memoryview(field).cast("B")) != field.nbytes:
        raise ContainerDimsError("container payload ended early")
    return field


class ContainerRows:
    """A container file read by rows, on demand, as ``holder.holder_map`` reads it.

    Opening it reads and checks the header and the payload length
    against the file's size, as :func:`read_field_file` does; ``shape``
    is the container's dims.  No payload byte is read until a
    ``reader()`` is entered.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as file:
            self.dtype, self.shape, self._offset = _read_header(file)

    @contextmanager
    def reader(self):
        """A handle of its own on the file, as ``read(out, top)``.

        ``read`` fills the float64 array ``out``, whose first axis is
        rows and whose rows are C-contiguous, with the container's rows
        from row ``top`` on: one ``seek``, then one ``readinto`` per
        row.  A float64 payload is read straight into ``out``; a float32
        one into one row buffer, cast as it is copied.  A read that ends
        early raises ``ContainerDimsError``.  Use one reader per thread.
        """
        values = math.prod(self.shape[1:])
        row_bytes = values * self.dtype.itemsize
        staging = None if self.dtype == np.float64 else np.empty(values, self.dtype)
        with open(self.path, "rb") as file:
            def read(out, top):
                file.seek(self._offset + top * row_bytes)
                for row in out:
                    target = row if staging is None else staging
                    if file.readinto(memoryview(target).cast("B")) != row_bytes:
                        raise ContainerDimsError("container payload ended early")
                    if staging is not None:
                        row[...] = staging.reshape(row.shape)

            yield read


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


def _csv(header: str, *columns) -> str:
    """``header`` and then one row per index of the equal-length ``columns``, LF-terminated.

    Each value is printed with ``"%.17g"``, the text of ``format(x, ".17g")``.
    """
    row = ",".join(["%.17g"] * len(columns))
    rows = zip(*(np.asarray(column, dtype=np.float64).tolist() for column in columns))
    return "\n".join([header, *(row % values for values in rows)]) + "\n"


def write_spectrum_csv(curve: SpectrumCurve) -> str:
    """``alpha,f`` rows at 17 significant digits, LF-terminated."""
    return _csv("alpha,f", curve.alpha, curve.f)


def write_moments_csv(partition) -> str:
    """``q,tau,alpha,f`` rows for a partition-function fit."""
    return _csv("q,tau,alpha,f", partition.q_values, partition.tau, partition.alpha, partition.f)


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
