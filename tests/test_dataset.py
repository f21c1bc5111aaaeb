"""Dataset tests: generation statistics, container round-trip, corruption detection."""

import struct
import zlib

import numpy as np
import pytest

from ambcest import (
    CorrelationSpec,
    Dataset,
    FormatError,
    ParameterError,
    ShapeError,
    SystemConfig,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from conftest import iid_config


class TestGeneration:
    def test_shapes_and_metadata(self):
        cfg = SystemConfig(na=3)
        ds = generate_dataset(cfg, "direct", 10, seed=1)
        assert ds.y.shape == (10, 8, 8, 3) and ds.x.shape == (10, 8, 8)
        assert len(ds) == 10 and ds.pilots == 3
        assert ds.link == "direct" and ds.seed == 1

    def test_composite_uses_its_own_pilot_count(self):
        cfg = SystemConfig(na=2, nb=5)
        assert generate_dataset(cfg, "composite", 3, seed=0).pilots == 5

    def test_seed_defaults_to_config(self):
        cfg = SystemConfig(seed=17)
        a = generate_dataset(cfg, "direct", 4)
        b = generate_dataset(cfg, "direct", 4, seed=17)
        assert a.seed == 17
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)

    def test_noise_variance_matches_operating_point(self):
        cfg = SystemConfig(m=16, ma=4, mb=4, snr_db=-6.0)
        ds = generate_dataset(cfg, "direct", 20_000, seed=0)
        noise = ds.y - ds.x[..., None]
        assert noise.var() == pytest.approx(cfg.sigma_u_sq, rel=0.03)
        assert abs(noise.mean()) < 0.01

    def test_labels_are_noiseless(self):
        cfg = iid_config(snr_db=float("inf"))
        ds = generate_dataset(cfg, "direct", 50, seed=2)
        assert np.array_equal(ds.y[..., 0], ds.x)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ParameterError):
            generate_dataset(SystemConfig(), "direct", 0)

    def test_geometry_validated(self):
        cfg = SystemConfig()
        with pytest.raises(ShapeError):
            Dataset(y=np.zeros((2, 8, 8, 3)), x=np.zeros((2, 8, 8)), cfg=cfg, link="direct", seed=0)


class TestContainerRoundTrip:
    def test_byte_identical_payload(self, tmp_path):
        cfg = SystemConfig(m=16, ma=4, mb=4, snr_db=2.5, zeta_db=-3.0, f=1.2, na=3)
        ds = generate_dataset(cfg, "composite", 25, seed=9)
        path = tmp_path / "data.ambd"
        save_dataset(ds, str(path))
        loaded = load_dataset(str(path))
        assert np.array_equal(loaded.y, ds.y)
        assert np.array_equal(loaded.x, ds.x)
        assert loaded.link == ds.link and loaded.seed == ds.seed
        # the container records the generation seed, which restores into cfg.seed
        assert loaded.cfg == ds.cfg.with_(seed=ds.seed)

    def test_save_is_deterministic(self, tmp_path):
        ds = generate_dataset(iid_config(), "direct", 8, seed=3)
        p1, p2 = tmp_path / "a.ambd", tmp_path / "b.ambd"
        save_dataset(ds, str(p1))
        save_dataset(ds, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_infinite_operating_points_survive(self, tmp_path):
        cfg = iid_config(snr_db=float("inf"))  # also has zeta_db = -inf
        ds = generate_dataset(cfg, "direct", 4, seed=0)
        path = tmp_path / "data.ambd"
        save_dataset(ds, str(path))
        loaded = load_dataset(str(path))
        assert loaded.cfg.snr_db == float("inf") and loaded.cfg.zeta_db == float("-inf")

    def test_correlation_specs_survive(self, tmp_path):
        cfg = SystemConfig(
            m=16, ma=4, mb=4,
            corr_h=CorrelationSpec("exponential", 0.85),
            corr_g=CorrelationSpec("identity", 0.0),
        )
        ds = generate_dataset(cfg, "direct", 4, seed=0)
        path = tmp_path / "data.ambd"
        save_dataset(ds, str(path))
        loaded = load_dataset(str(path))
        assert loaded.cfg.corr_h == cfg.corr_h and loaded.cfg.corr_g == cfg.corr_g


class TestContainerValidation:
    def write_good(self, tmp_path):
        ds = generate_dataset(iid_config(), "direct", 5, seed=1)
        path = tmp_path / "data.ambd"
        save_dataset(ds, str(path))
        return path

    def test_bad_magic_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_dataset(str(path))

    def test_flipped_payload_bit_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[200] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="CRC"):
            load_dataset(str(path))

    def test_truncation_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_dataset(str(path))

    def test_invalid_header_under_a_valid_crc_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 12, 17)  # m no longer equals ma*mb = 16
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="invalid header"):
            load_dataset(str(path))

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "stub.ambd"
        path.write_bytes(b"AMBD\x01")
        with pytest.raises(FormatError):
            load_dataset(str(path))

    def test_loaded_arrays_are_writable(self, tmp_path):
        path = self.write_good(tmp_path)
        loaded = load_dataset(str(path))
        loaded.y[0, 0, 0, 0] = 42.0  # raises if load returned a read-only buffer view
        assert loaded.y[0, 0, 0, 0] == 42.0
