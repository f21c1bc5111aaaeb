"""Framing shared by the binary artifact files (checkpoints and datasets).

Every artifact is `magic | u32 version | header | f64 payload | u32 CRC32 of all preceding
bytes`.  Writes go to a temporary file in the target's directory that is then renamed over
the target, so a crash mid-write leaves the previous file (or none), never a truncated one.
Reads check existence, length, magic and CRC before any header field is interpreted, then
the version and the payload size, so loaders only map header fields to objects.
"""

import contextlib
import os
import secrets
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ArtifactError, FormatError

_CRC = struct.Struct("<I")


def write_artifact(path: str | Path, header: bytes, arrays) -> None:
    """Write the header, each array as little-endian float64 and the CRC32 trailer."""
    chunks = [header, *(np.ascontiguousarray(a, dtype="<f8") for a in arrays)]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    tmp = f"{os.fspath(path)}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.write(_CRC.pack(crc))
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the target, not the temp file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def read_artifact(path: str | Path, magic: bytes, header: struct.Struct, version: int, what: str) -> tuple:
    """Read a whole artifact whose `header` opens with its magic and u32 version; returns
    (the header fields after those two, the float64 payload).  The file is read into one
    writable buffer placed so that the payload starts 8-byte aligned, and the payload is
    a view of it, so a loader can keep its arrays without a copy."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            stream = b"" if size else fh.read()  # a pipe reports no size: read it whole
            size = size or len(stream)
            buf = np.empty(size + 8, dtype=np.uint8)
            start = -(buf.__array_interface__["data"][0] + header.size) % 8
            raw = buf[start : start + size]
            if stream:
                raw[:] = np.frombuffer(stream, dtype=np.uint8)
            else:
                raw = raw[: fh.readinto(raw)]
    except FileNotFoundError:
        raise ArtifactError(f"{what} not found: {path}") from None
    if len(raw) < header.size + _CRC.size:
        raise FormatError(f"{path}: truncated ({len(raw)} bytes is shorter than the header)")
    if raw[: len(magic)].tobytes() != magic:
        raise FormatError(f"{path}: bad magic {raw[: len(magic)].tobytes()!r}, expected {magic!r}")
    if zlib.crc32(raw[: -_CRC.size]) != _CRC.unpack_from(raw, len(raw) - _CRC.size)[0]:
        raise FormatError(f"{path}: CRC32 mismatch (corrupted or truncated file)")
    _, found, *fields = header.unpack_from(raw, 0)
    if found != version:
        raise FormatError(f"{path}: unsupported {what} version {found} (supported: {version})")
    payload = raw[header.size : -_CRC.size]
    if payload.size % 8:
        raise FormatError(f"{path}: payload of {payload.size} bytes is not whole float64 values")
    return tuple(fields), payload.view("<f8")
