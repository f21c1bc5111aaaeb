"""Artifact-file tests: atomic replacement on a failed write, the read checks, and
corruption properties."""

import os
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambcest import (
    ArtifactError,
    DenoiserHyper,
    FormatError,
    build_model,
    generate_dataset,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from ambcest import artifact
from conftest import iid_config

TINY = DenoiserHyper(blocks=1, layers_per_block=2, filters=2, ma=2, mb=2, pilots=2)


def _dataset(seed):
    return generate_dataset(iid_config(m=4, ma=2, mb=2), "direct", 3, seed=seed)


# (suffix, save, load, first object, second object)
KINDS = {
    "ckpt": (save_checkpoint, load_checkpoint, lambda: build_model(TINY, rng=0),
             lambda: build_model(TINY, rng=1)),
    "ambd": (save_dataset, load_dataset, lambda: _dataset(0), lambda: _dataset(1)),
}


class _HalfWriter:
    """A file stand-in that writes half of the first chunk, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        view = memoryview(chunk).cast("B")
        self.fh.write(view[: len(view) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("suffix", sorted(KINDS))
class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, suffix):
        save, load, first, second = KINDS[suffix]
        path = tmp_path / f"artifact.{suffix}"
        save(first(), str(path))
        before = path.read_bytes()
        monkeypatch.setattr(artifact, "open", lambda *a, **k: _HalfWriter(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space"):
            save(second(), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_rewrite_replaces_the_file(self, tmp_path, suffix):
        save, load, first, second = KINDS[suffix]
        path = tmp_path / f"artifact.{suffix}"
        save(first(), str(path))
        save(second(), str(path))
        other = tmp_path / f"other.{suffix}"
        save(second(), str(other))
        assert path.read_bytes() == other.read_bytes()
        assert sorted(os.listdir(tmp_path)) == sorted([path.name, other.name])


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("suffix", sorted(KINDS))
class TestReadChecks:
    """read_artifact's existence, version and payload-size checks; edited files keep a
    valid CRC, so only the check under test can reject them."""

    def test_missing_file_is_an_artifact_error_naming_the_path(self, tmp_path, suffix):
        path = tmp_path / f"missing.{suffix}"
        with pytest.raises(ArtifactError, match="not found") as info:
            KINDS[suffix][1](str(path))
        assert str(path) in str(info.value)

    def test_other_version_is_a_format_error(self, tmp_path, good_files, suffix):
        body = bytearray(good_files[suffix][:-4])
        body[4:8] = struct.pack("<I", 99)
        path = tmp_path / f"v99.{suffix}"
        path.write_bytes(_with_crc(bytes(body)))
        with pytest.raises(FormatError, match=r"version 99 \(supported: 1\)") as info:
            KINDS[suffix][1](str(path))
        assert str(path) in str(info.value)

    def test_a_pipe_is_read_to_its_end(self, tmp_path, good_files, suffix):
        # a FIFO reports no size; the reader reads it whole, as it reads a regular file
        path, regular = tmp_path / f"fifo.{suffix}", tmp_path / f"file.{suffix}"
        regular.write_bytes(good_files[suffix])
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(good_files[suffix],), daemon=True)
        writer.start()
        got, want = KINDS[suffix][1](str(path)), KINDS[suffix][1](str(regular))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert all(np.array_equal(getattr(got, a), getattr(want, a)) for a in ("state", "y", "x") if hasattr(want, a))

    @pytest.mark.parametrize("extra", [struct.pack("<d", 0.0), b"\0"])
    def test_longer_payload_is_a_format_error(self, tmp_path, good_files, suffix, extra):
        path = tmp_path / f"long.{suffix}"
        path.write_bytes(_with_crc(good_files[suffix][:-4] + extra))
        with pytest.raises(FormatError):
            KINDS[suffix][1](str(path))


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("good")
    out = {}
    for suffix, (save, _, first, _) in KINDS.items():
        path = root / f"good.{suffix}"
        save(first(), str(path))
        out[suffix] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


@pytest.mark.parametrize("suffix", sorted(KINDS))
class TestCorruptionProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_single_bit_flip_is_a_format_error(self, good_files, corrupt_dir, suffix, data):
        raw = bytearray(good_files[suffix])
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
        path = corrupt_dir / f"flipped.{suffix}"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            KINDS[suffix][1](str(path))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_truncation_is_a_format_error(self, good_files, corrupt_dir, suffix, data):
        raw = good_files[suffix]
        keep = data.draw(st.integers(0, len(raw) - 1), label="kept bytes")
        path = corrupt_dir / f"truncated.{suffix}"
        path.write_bytes(raw[:keep])
        with pytest.raises(FormatError):
            KINDS[suffix][1](str(path))
