"""Framing shared by the binary artifact files (checkpoints and datasets).

Every artifact is `magic | header | payload | u32 CRC32 of all preceding bytes`.
Writes go to a temporary file in the target's directory that is then renamed over the
target, so a crash mid-write leaves the previous file (or none), never a truncated one.
Reads check the length, the magic and the CRC before any header field is interpreted.
"""

import contextlib
import os
import secrets
import struct
import zlib
from pathlib import Path

from .errors import FormatError

_CRC = struct.Struct("<I")


def write_artifact(path: str | Path, chunks: list) -> None:
    """Write the chunks plus their CRC32 trailer through a same-directory temp file."""
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


def read_artifact(path: str | Path, magic: bytes, header_size: int) -> bytes:
    """Read a whole artifact, rejecting short files, foreign magic and CRC mismatches."""
    raw = Path(path).read_bytes()
    if len(raw) < header_size + _CRC.size:
        raise FormatError(f"{path}: truncated ({len(raw)} bytes is shorter than the header)")
    if raw[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {raw[: len(magic)]!r}, expected {magic!r}")
    if zlib.crc32(memoryview(raw)[: -_CRC.size]) != _CRC.unpack_from(raw, len(raw) - _CRC.size)[0]:
        raise FormatError(f"{path}: CRC32 mismatch (corrupted or truncated file)")
    return raw
