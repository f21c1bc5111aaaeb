"""Simulator tests: correlation models, derived constants, pilot tensors, reshapes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambcest import (
    CorrelationSpec,
    NumericError,
    ParameterError,
    SystemConfig,
    build_correlation_matrix,
    composite_correlation,
    derive_noise_and_alpha,
    link_correlation,
    sample_gaussian_vector,
    simulate_batch,
)
from ambcest.channel import pilots_for_link, vec_to_mat, widen_pilots
from conftest import iid_config


class TestCorrelation:
    def test_identity_model_gives_eye(self):
        spec = CorrelationSpec("identity", 0.0)
        assert np.array_equal(build_correlation_matrix(spec, 5), np.eye(5))

    def test_exponential_entries(self):
        R = build_correlation_matrix(CorrelationSpec("exponential", 0.5), 4)
        assert R[0, 0] == 1.0
        assert R[0, 1] == 0.5
        assert R[0, 3] == 0.125
        assert np.array_equal(R, R.T)

    def test_exponential_is_positive_definite(self):
        R = build_correlation_matrix(CorrelationSpec("exponential", 0.95), 32)
        np.linalg.cholesky(R)  # raises if not PD

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_rho_range_enforced(self, bad):
        with pytest.raises(ParameterError):
            CorrelationSpec("exponential", bad)

    def test_unknown_model_rejected(self):
        with pytest.raises(ParameterError):
            CorrelationSpec("fancy", 0.5)

    def test_dim_must_be_positive(self):
        with pytest.raises(ParameterError):
            build_correlation_matrix(CorrelationSpec("identity", 0.0), 0)


class TestSampling:
    def test_shapes(self, rng):
        R = build_correlation_matrix(CorrelationSpec("exponential", 0.8), 6)
        assert sample_gaussian_vector(R, rng).shape == (6,)
        assert sample_gaussian_vector(R, rng, size=10).shape == (10, 6)

    def test_covariance_monte_carlo(self, rng):
        R = build_correlation_matrix(CorrelationSpec("exponential", 0.7), 4)
        draws = sample_gaussian_vector(R, rng, size=40_000)
        emp = draws.T @ draws / draws.shape[0]
        assert np.abs(emp - R).max() < 0.05

    def test_non_pd_rejected(self, rng):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NumericError):
            sample_gaussian_vector(bad, rng)


class TestSystemConfig:
    def test_geometry_must_factor(self):
        with pytest.raises(ParameterError):
            SystemConfig(m=64, ma=8, mb=9)

    def test_derived_noise_iid_snr0(self):
        cfg = iid_config(snr_db=0.0)
        sigma, alpha = derive_noise_and_alpha(cfg)
        assert sigma == pytest.approx(1.0)
        assert alpha == 0.0  # zeta_db = -inf

    def test_derived_noise_correlated(self):
        cfg = SystemConfig()  # exponential correlation has unit diagonal: trace = m
        assert cfg.sigma_u_sq == pytest.approx(10.0**0.6)

    def test_zeta_definition_holds(self):
        cfg = SystemConfig(zeta_db=-5.0, f=2.0)
        tr_h = np.trace(build_correlation_matrix(cfg.corr_h, cfg.m))
        tr_g = np.trace(build_correlation_matrix(cfg.corr_g, cfg.m))
        zeta = cfg.alpha**2 * cfg.f**2 * tr_g / tr_h
        assert zeta == pytest.approx(10.0 ** (-5.0 / 10.0))

    def test_zero_f_with_finite_zeta_rejected(self):
        with pytest.raises(ParameterError):
            SystemConfig(f=0.0, zeta_db=-5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"zeta_db": float("nan")}, {"zeta_db": float("inf")}, {"f": float("nan")}, {"f": float("inf")}],
        ids=["zeta_nan", "zeta_inf", "f_nan", "f_inf"],
    )
    def test_non_finite_reflection_rejected(self, kwargs):
        # each would put nan or inf into every composite-link sample (f = inf makes alpha 0)
        with pytest.raises(ParameterError, match="alpha"):
            SystemConfig(**kwargs)

    def test_default_specs_are_the_package_defaults(self):
        assert SystemConfig() == SystemConfig(corr_h=CorrelationSpec(), corr_g=CorrelationSpec())
        assert (CorrelationSpec().model, CorrelationSpec().rho) == ("exponential", 0.9)

    def test_noiseless_point_allowed(self):
        cfg = iid_config(snr_db=float("inf"))
        assert cfg.sigma_u_sq == 0.0

    def test_negative_infinite_snr_rejected(self):
        with pytest.raises(ParameterError):
            iid_config(snr_db=float("-inf"))

    def test_with_updates_correlation_dims(self):
        cfg = SystemConfig().with_(m=16, ma=4, mb=4)
        assert link_correlation(cfg, "direct").shape == (16, 16)
        assert link_correlation(cfg, "composite").shape == (16, 16)

    def test_pilot_counts_positive(self):
        with pytest.raises(ParameterError):
            SystemConfig(na=0)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 64),
        models=st.tuples(st.sampled_from(["identity", "exponential"]), st.sampled_from(["identity", "exponential"])),
        rhos=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
        snr_db=st.floats(-40.0, 40.0) | st.just(float("inf")),
        zeta_db=st.floats(-40.0, 20.0) | st.just(float("-inf")),
        f=st.floats(0.05, 5.0),
    )
    def test_derived_constants_equal_the_trace_formula(self, m, models, rhos, snr_db, zeta_db, f):
        # both correlation models have a unit diagonal, so the traces are m; the derived
        # constants must equal, bit for bit, the formula over the traces of the full matrices
        corr = [CorrelationSpec(model, rho) for model, rho in zip(models, rhos)]
        cfg = SystemConfig(m=m, ma=m, mb=1, snr_db=snr_db, zeta_db=zeta_db, f=f, corr_h=corr[0], corr_g=corr[1])
        tr_h = float(np.trace(build_correlation_matrix(cfg.corr_h, cfg.m)))
        tr_g = float(np.trace(build_correlation_matrix(cfg.corr_g, cfg.m)))
        sigma_u_sq = tr_h / (m * 10.0 ** (snr_db / 10.0))
        zeta = 10.0 ** (zeta_db / 10.0)
        alpha = 0.0 if zeta == 0.0 else float(np.sqrt(zeta * tr_h / (f**2 * tr_g)))
        assert derive_noise_and_alpha(cfg) == (sigma_u_sq, alpha)
        assert (cfg.sigma_u_sq, cfg.alpha) == (sigma_u_sq, alpha)


def replay(cfg, link, n, seed):
    """Redraw simulate_batch's channels and noise from the same generator, in its order.

    Returns the channel vectors (n, M) and the noise (n, P, M).
    """
    rng = np.random.default_rng(seed)
    x = sample_gaussian_vector(build_correlation_matrix(cfg.corr_h, cfg.m), rng, size=n)
    if link == "composite":
        g = sample_gaussian_vector(build_correlation_matrix(cfg.corr_g, cfg.m), rng, size=n)
        x = x + cfg.alpha * cfg.f * g
    p = pilots_for_link(cfg, link)
    noise = np.sqrt(cfg.sigma_u_sq) * rng.standard_normal((n, p, cfg.m))
    return x, noise


def reference_simulate(cfg, link, n, seed):
    """The simulator as first written: an (n, P, M) sum of channel and noise, then a
    transposing copy to (n, Ma, Mb, P).  simulate_batch must reproduce it bit for bit."""
    x, noise = replay(cfg, link, n, seed)
    samples = x[:, None, :] + noise
    y = np.ascontiguousarray(np.moveaxis(vec_to_mat(samples, cfg.ma, cfg.mb), 1, -1))
    return y, vec_to_mat(x, cfg.ma, cfg.mb)


class TestAgainstReference:
    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        link=st.sampled_from(["direct", "composite"]),
        n=st.integers(1, 40),
        ma=st.integers(1, 6),
        mb=st.integers(1, 6),
        p=st.integers(1, 9),
        rho=st.floats(0.0, 0.95),
        snr_db=st.floats(-20.0, 30.0) | st.just(float("inf")),
        zeta_db=st.floats(-30.0, 10.0) | st.just(float("-inf")),
        f=st.floats(0.1, 3.0),
    )
    def test_bits_equal_the_reference(self, seed, link, n, ma, mb, p, rho, snr_db, zeta_db, f):
        m = ma * mb
        corr = CorrelationSpec("exponential", rho)
        cfg = SystemConfig(
            m=m, ma=ma, mb=mb, snr_db=snr_db, zeta_db=zeta_db, f=f, corr_h=corr, corr_g=corr, na=p, nb=p
        )
        y, x = simulate_batch(cfg, link, n, np.random.default_rng(seed))
        y_ref, x_ref = reference_simulate(cfg, link, n, seed)
        assert y.shape == y_ref.shape and x.shape == x_ref.shape
        assert np.array_equal(y.view(np.uint64), y_ref.view(np.uint64))
        assert np.array_equal(x.view(np.uint64), x_ref.view(np.uint64))
        assert y.flags.c_contiguous and x.flags.c_contiguous
        assert not np.shares_memory(y, x)

    @pytest.mark.parametrize("link", ["direct", "composite"])
    def test_peak_memory_is_bounded(self, link):
        # room for y, x and the (n, P, M) noise draw: no other full-size temporary (a
        # scaled-noise copy, an (n, P, M) sum, a transposing copy, the composite link's g)
        tracemalloc.start()
        try:
            y, x = simulate_batch(SystemConfig(), link, 20_000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * y.nbytes + x.nbytes + 2**20


class TestRealization:
    def test_composite_is_h_plus_scaled_g(self):
        cfg = SystemConfig(zeta_db=-3.0, f=1.5)
        _, x = simulate_batch(cfg, "composite", 5, np.random.default_rng(4))
        w, _ = replay(cfg, "composite", 5, seed=4)
        assert np.array_equal(x, w.reshape(5, 8, 8))


class TestReshapes:
    def test_vec_mat_round_trip(self, rng):
        # reshape(n, -1), the flatten the scorers apply to truths, inverts vec_to_mat
        x = rng.standard_normal((5, 12))
        assert np.array_equal(vec_to_mat(x, 3, 4).reshape(5, -1), x)

    def test_vec_to_mat_is_row_major(self):
        X = vec_to_mat(np.arange(6.0), 2, 3)
        assert np.array_equal(X, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])

    def test_stack_layout(self):
        # y[k, a, b, p] is entry a*Mb + b of pilot sample p of draw k
        cfg = SystemConfig(m=6, ma=2, mb=3, na=2)
        y, _ = simulate_batch(cfg, "direct", 4, np.random.default_rng(8))
        h, noise = replay(cfg, "direct", 4, seed=8)
        samples = h[:, None, :] + noise  # (n, P, M)
        assert y.shape == (4, 2, 3, 2)
        assert y[3, 1, 2, 0] == samples[3, 0, 5]
        assert y[0, 0, 1, 1] == samples[0, 1, 1]
        assert np.array_equal(np.moveaxis(y, -1, 1).reshape(4, 2, 6), samples)

    def test_widen_layout(self, rng):
        data = rng.standard_normal((5, 2, 3, 4))  # batch of Ma=2, Mb=3, P=4
        wide = widen_pilots(data)
        assert wide.shape == (5, 2, 12)
        for p in range(4):
            for b in range(3):
                assert np.array_equal(wide[..., :, p * 3 + b], data[..., :, b, p])


class TestPilotFrames:
    def test_truth_is_reshaped_channel(self):
        cfg = SystemConfig()
        _, x = simulate_batch(cfg, "direct", 3, np.random.default_rng(2))
        h, _ = replay(cfg, "direct", 3, seed=2)
        assert np.array_equal(x, h.reshape(3, 8, 8))

    def test_noiseless_slices_equal_truth(self):
        cfg = iid_config(snr_db=float("inf"), na=2, nb=3)
        for link in ("direct", "composite"):
            y, x = simulate_batch(cfg, link, 4, np.random.default_rng(0))
            for p in range(y.shape[-1]):
                assert np.array_equal(y[..., p], x)

    def test_pilot_counts_follow_config(self):
        cfg = SystemConfig(na=3, nb=5)
        y_a, _ = simulate_batch(cfg, "direct", 2, np.random.default_rng(0))
        y_b, _ = simulate_batch(cfg, "composite", 2, np.random.default_rng(0))
        assert y_a.shape[-1] == 3 and y_b.shape[-1] == 5

    def test_frame_deterministic(self):
        cfg = SystemConfig()
        for link in ("direct", "composite"):
            y1, x1 = simulate_batch(cfg, link, 3, np.random.default_rng(2))
            y2, x2 = simulate_batch(cfg, link, 3, np.random.default_rng(2))
            assert np.array_equal(y1, y2) and np.array_equal(x1, x2)


class TestBatchSimulation:
    def test_shapes_and_determinism(self):
        cfg = SystemConfig(na=3)
        y1, x1 = simulate_batch(cfg, "direct", 7, np.random.default_rng(5))
        y2, x2 = simulate_batch(cfg, "direct", 7, np.random.default_rng(5))
        assert y1.shape == (7, 8, 8, 3) and x1.shape == (7, 8, 8)
        assert np.array_equal(y1, y2) and np.array_equal(x1, x2)

    def test_direct_truth_variance(self):
        cfg = iid_config()
        _, x = simulate_batch(cfg, "direct", 20_000, np.random.default_rng(0))
        assert x.var() == pytest.approx(1.0, rel=0.05)

    def test_composite_truth_variance(self):
        cfg = SystemConfig(m=16, ma=4, mb=4)
        _, x = simulate_batch(cfg, "composite", 20_000, np.random.default_rng(0))
        R_w = composite_correlation(cfg)
        assert x.reshape(-1, 16).var(axis=0).mean() == pytest.approx(
            np.trace(R_w) / 16, rel=0.05
        )

    def test_noise_level_matches_sigma(self):
        cfg = iid_config(snr_db=3.0)
        y, x = simulate_batch(cfg, "direct", 10_000, np.random.default_rng(1))
        noise = y - x[..., None]
        assert noise.var() == pytest.approx(cfg.sigma_u_sq, rel=0.05)

    def test_unknown_link_rejected(self):
        with pytest.raises(ParameterError):
            simulate_batch(SystemConfig(), "sideways", 4, np.random.default_rng(0))


class TestLinkHelpers:
    def test_pilots_for_link(self):
        cfg = SystemConfig(na=4, nb=7)
        assert pilots_for_link(cfg, "direct") == 4
        assert pilots_for_link(cfg, "composite") == 7

    def test_composite_correlation_formula(self):
        cfg = SystemConfig(m=16, ma=4, mb=4, zeta_db=-3.0, f=1.5)
        R_h = build_correlation_matrix(cfg.corr_h, cfg.m)
        R_g = build_correlation_matrix(cfg.corr_g, cfg.m)
        want = R_h + (cfg.alpha * cfg.f) ** 2 * R_g
        assert np.allclose(composite_correlation(cfg), want, atol=1e-12)

    def test_link_correlation_direct_is_rh(self):
        cfg = SystemConfig(m=16, ma=4, mb=4)
        assert np.array_equal(
            link_correlation(cfg, "direct"), build_correlation_matrix(cfg.corr_h, cfg.m)
        )

    def test_composite_with_no_reflection_equals_direct(self):
        cfg = iid_config()
        assert np.array_equal(
            link_correlation(cfg, "composite"), link_correlation(cfg, "direct")
        )
