"""Estimator tests: LS risk, Wiener gains, matrix form vs brute force, NMSE metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambcest import (
    MetricError,
    MmseContext,
    NmseEstimate,
    NumericError,
    ParameterError,
    ShapeError,
    brute_force_conditional_mean,
    build_correlation_matrix,
    column_correlation,
    ls_estimate,
    matrix_mmse_map,
    matrix_mmse_weights,
    mmse_estimate_matrix,
    mmse_estimate_vector,
    mmse_gain,
    nmse,
    simulate_batch,
)
from ambcest.channel import CorrelationSpec, widen_pilots
from ambcest.estimators import PAIRWISE_MIN_PILOTS
from conftest import iid_config


class TestLsEstimate:
    def test_is_pilot_mean_flattened(self):
        y = np.zeros((2, 2, 2))
        y[..., 0] = [[1.0, 2.0], [3.0, 4.0]]
        y[..., 1] = [[3.0, 2.0], [1.0, 0.0]]
        assert np.array_equal(ls_estimate(y), [2.0, 2.0, 2.0, 2.0])

    def test_batch_shape(self, rng):
        y = rng.standard_normal((7, 3, 4, 2))
        out = ls_estimate(y)
        assert out.shape == (7, 12)
        assert np.allclose(out, y.mean(axis=3).reshape(7, 12), atol=1e-15)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            ls_estimate(np.zeros((4, 4)))

    def test_empty_pilot_axis_rejected(self):
        with pytest.raises(ShapeError):
            ls_estimate(np.zeros((3, 4, 4, 0)))

    def test_monte_carlo_risk_matches_sigma_over_p(self):
        cfg = iid_config(snr_db=0.0)  # sigma_u^2 = 1, P = 2
        y, x = simulate_batch(cfg, "direct", 4000, np.random.default_rng(0))
        score = nmse(x.reshape(4000, -1), ls_estimate(y))
        assert score.value == pytest.approx(0.5, rel=0.05)

    def test_threshold_is_where_in_order_sums_stop_matching(self):
        # below PAIRWISE_MIN_PILOTS the property test below shows in-order slice sums give
        # y.mean's bits; at it, numpy's pairwise reduction already differs on this draw
        y = np.random.default_rng(3).standard_normal((500, 4, 4, PAIRWISE_MIN_PILOTS))
        in_order = y[..., 0] + 0.0
        for i in range(1, y.shape[-1]):
            in_order += y[..., i]
        in_order /= y.shape[-1]
        assert not np.array_equal(in_order, y.mean(axis=-1))


def _layout(base: np.ndarray, layout: str) -> np.ndarray:
    """The same values as `base` (pilot axis last) in another memory layout."""
    if layout == "c":
        return base
    if layout == "pilot_outer":  # pilot axis outermost in memory
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(base, -1, 0)), 0, -1)
    if layout == "strided":  # pilot axis innermost, yet not C-contiguous
        wide = np.zeros(base.shape[:-3] + (2 * base.shape[-3],) + base.shape[-2:], base.dtype)
        wide[..., ::2, :, :] = base
        return wide[..., ::2, :, :]
    return base.astype(np.float32)


class TestLsProperties:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 16),
        batch=st.sampled_from([(), (1,), (5,), (37,)]),
        ma=st.integers(1, 5),
        mb=st.integers(1, 5),
        log_scale=st.floats(-30.0, 30.0),
        zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
        layout=st.sampled_from(["c", "pilot_outer", "strided", "float32"]),
    )
    def test_bits_equal_the_pilot_mean(self, seed, p, batch, ma, mb, log_scale, zero_frac, layout):
        # the reference is the mean over the pilot axis of the float64 input; signed zeros
        # (zero_frac) check that the sum starts from +0.0 as numpy's reduction does
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(batch + (ma, mb, p)) * 10.0**log_scale
        base[rng.random(base.shape) < zero_frac] = -0.0
        y = _layout(base, layout)
        want = np.asarray(y, dtype=np.float64).mean(axis=-1).reshape(*batch, -1)
        got = ls_estimate(y)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMmseGain:
    def test_iid_gain_is_scalar_shrinkage(self):
        G = mmse_gain(np.eye(4), 1.0, 2)
        assert np.allclose(G, (2.0 / 3.0) * np.eye(4), atol=1e-12)

    def test_noiseless_gain_is_identity(self):
        R = build_correlation_matrix(CorrelationSpec("exponential", 0.7), 5)
        assert np.allclose(mmse_gain(R, 0.0, 3), np.eye(5), atol=1e-10)

    def test_non_pd_prior_rejected(self):
        with pytest.raises(NumericError):
            mmse_gain(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0, 2)

    def test_zero_pilots_rejected(self):
        with pytest.raises(ParameterError):
            mmse_gain(np.eye(2), 1.0, 0)


class TestVectorMmse:
    def test_iid_estimate_shrinks_the_mean(self, rng):
        y_bar = rng.standard_normal(6)
        x_hat = mmse_estimate_vector(y_bar, np.eye(6), 1.0, 2)
        assert np.allclose(x_hat, (2.0 / 3.0) * y_bar, atol=1e-12)

    def test_matches_brute_force(self, rng):
        for trial in range(10):
            m, p = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            rho = float(rng.uniform(0.0, 0.95))
            R = build_correlation_matrix(CorrelationSpec("exponential", rho), m)
            sigma = float(rng.uniform(0.2, 3.0))
            y = rng.standard_normal((p, m))
            want = brute_force_conditional_mean(y, R, sigma)
            got = mmse_estimate_vector(y.mean(axis=0), R, sigma, p)
            assert np.abs(got - want).max() < 1e-12, f"trial {trial}"

    def test_beats_ls_on_correlated_channels(self):
        cfg = iid_config(m=16, ma=4, mb=4, snr_db=-6.0).with_(
            corr_h=CorrelationSpec("exponential", 0.9),
            corr_g=CorrelationSpec("exponential", 0.9),
        )
        y, x = simulate_batch(cfg, "direct", 4000, np.random.default_rng(1))
        truth = x.reshape(4000, -1)
        R = build_correlation_matrix(cfg.corr_h, cfg.m)
        ls_score = nmse(truth, ls_estimate(y))
        mmse_score = nmse(truth, mmse_estimate_vector(ls_estimate(y), R, cfg.sigma_u_sq, 2))
        assert mmse_score.value < ls_score.value

    def test_monte_carlo_risk_iid(self):
        cfg = iid_config(snr_db=0.0)  # sigma = 1, P = 2 -> risk 1/3
        y, x = simulate_batch(cfg, "direct", 4000, np.random.default_rng(2))
        score = nmse(
            x.reshape(4000, -1),
            mmse_estimate_vector(ls_estimate(y), np.eye(16), 1.0, 2),
        )
        assert score.value == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mmse_estimate_vector(np.zeros(5), np.eye(4), 1.0, 2)


class TestColumnCorrelation:
    def test_row_iid_prior_gives_ma_times_c(self):
        C = np.array([[2.0, 0.5], [0.5, 1.0]])
        R = np.kron(np.eye(3), C)
        assert np.allclose(column_correlation(R, 3, 2), 3 * C, atol=1e-12)

    def test_matches_monte_carlo(self, rng):
        R = build_correlation_matrix(CorrelationSpec("exponential", 0.8), 6)
        L = np.linalg.cholesky(R)
        draws = rng.standard_normal((50_000, 6)) @ L.T
        X = draws.reshape(-1, 2, 3)
        emp = np.einsum("nab,nac->bc", X, X) / draws.shape[0]
        assert np.abs(emp - column_correlation(R, 2, 3)).max() < 0.1

    def test_shape_validated(self):
        with pytest.raises(ShapeError):
            column_correlation(np.eye(5), 2, 3)


class TestMatrixMmse:
    def test_selection_matrix_layout(self):
        ctx = MmseContext(r_x=np.eye(2), sigma_u_sq=1.0, ma=2, mb=2, pilots=3)
        assert np.array_equal(ctx.selection, np.tile(np.eye(2), (1, 3)))

    def test_zero_noise_rejected(self):
        with pytest.raises(ParameterError):
            MmseContext(r_x=np.eye(2), sigma_u_sq=0.0, ma=2, mb=2, pilots=2)

    def test_map_shape(self):
        ctx = MmseContext(r_x=np.eye(3), sigma_u_sq=0.5, ma=2, mb=3, pilots=4)
        assert matrix_mmse_map(ctx).shape == (12, 3)
        W, W_out = matrix_mmse_weights(ctx)
        assert W.shape == (12, 12) and W_out.shape == (12, 3)

    def test_agrees_with_vector_route_on_block_diagonal_prior(self, rng):
        # for a row-i.i.d. prior the rowwise matrix form and the full vector form
        # are the same estimator, reached through entirely different algebra
        C = np.array([[1.5, 0.4], [0.4, 0.8]])
        ma, p, sigma = 3, 2, 0.7
        R = np.kron(np.eye(ma), C)
        cfg_like = rng.standard_normal((5, ma, 2, p))
        ctx = MmseContext.from_column_cov(C, sigma, ma, p)
        got = mmse_estimate_matrix(widen_pilots(cfg_like), ctx)
        y_bar = cfg_like.mean(axis=3).reshape(5, -1)
        want = mmse_estimate_vector(y_bar, R, sigma, p).reshape(5, ma, 2)
        assert np.abs(got - want).max() < 1e-12

    def test_agrees_with_brute_force(self, rng):
        C = np.array([[1.0, 0.3], [0.3, 0.6]])
        ma, p, sigma = 2, 2, 0.9
        ctx = MmseContext.from_column_cov(C, sigma, ma, p)
        R = np.kron(np.eye(ma), C)
        y = rng.standard_normal((p, ma * 2))
        want = brute_force_conditional_mean(y, R, sigma).reshape(ma, 2)
        y_tensor = np.moveaxis(y.reshape(p, ma, 2), 0, -1)
        got = mmse_estimate_matrix(widen_pilots(y_tensor), ctx)
        assert np.abs(got - want).max() < 1e-12

    def test_input_shape_validated(self):
        ctx = MmseContext(r_x=np.eye(2), sigma_u_sq=1.0, ma=2, mb=2, pilots=2)
        with pytest.raises(ShapeError):
            mmse_estimate_matrix(np.zeros((2, 5)), ctx)


class TestBruteForce:
    def test_hand_oracle_one_dimensional(self):
        # x ~ N(0,1), two observations with unit noise: E[x|y] = (y1+y2)/3
        y = np.array([[0.9], [0.3]])
        got = brute_force_conditional_mean(y, np.eye(1), 1.0)
        assert got[0] == pytest.approx(0.4, abs=1e-12)

    def test_noiseless_returns_mean(self, rng):
        y = rng.standard_normal((3, 4))
        assert np.allclose(
            brute_force_conditional_mean(y, np.eye(4), 0.0), y.mean(axis=0), atol=1e-15
        )

    def test_shape_validated(self):
        with pytest.raises(ShapeError):
            brute_force_conditional_mean(np.zeros((2, 3)), np.eye(4), 1.0)


class TestNmse:
    def test_exact_value(self):
        truth = np.array([[3.0, 4.0], [0.0, 5.0]])
        est = np.array([[3.0, 3.0], [0.0, 5.0]])
        score = nmse(truth, est)
        assert score.value == pytest.approx(1.0 / 50.0, abs=1e-15)
        assert score.trials == 2

    def test_perfect_estimates_score_zero(self, rng):
        truth = rng.standard_normal((40, 6))
        assert nmse(truth, truth.copy()).value == 0.0

    def test_single_trial_has_nan_ci(self):
        score = nmse(np.ones((1, 3)), np.zeros((1, 3)))
        assert np.isnan(score.ci_half_width)

    def test_ci_shrinks_with_more_trials(self, rng):
        truth = rng.standard_normal((8000, 4))
        est = truth + 0.5 * rng.standard_normal((8000, 4))
        small = nmse(truth[:500], est[:500])
        large = nmse(truth, est)
        assert large.ci_half_width < small.ci_half_width

    def test_ci_brackets_known_risk(self):
        cfg = iid_config(snr_db=0.0)
        y, x = simulate_batch(cfg, "direct", 10_000, np.random.default_rng(7))
        score = nmse(x.reshape(10_000, -1), ls_estimate(y))
        assert abs(score.value - 0.5) < 3 * score.ci_half_width

    def test_all_zero_truth_rejected(self):
        with pytest.raises(MetricError):
            nmse(np.zeros((4, 2)), np.ones((4, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            nmse(np.zeros((4, 2)), np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimates_rejected(self, rng, bad):
        truth = rng.standard_normal((30, 4))
        est = truth.copy()
        est[[3, 17], 1] = bad
        with pytest.raises(NumericError, match="2 of 30 trials"):
            nmse(truth, est)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf / inf
    def test_non_finite_truth_rejected(self, rng):
        truth = rng.standard_normal((30, 4))
        truth[5, 0] = np.inf
        with pytest.raises(NumericError, match="1 of 30 trials"):
            nmse(truth, np.zeros((30, 4)))

    def test_to_db(self):
        assert NmseEstimate(value=0.1, ci_half_width=0.0, trials=10).to_db() == pytest.approx(-10.0)


class TestNmseProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), scale=st.floats(1e-3, 1e3))
    def test_value_is_scale_invariant(self, seed, n, scale):
        truth, est = np.random.default_rng(seed).standard_normal((2, n, 8))
        want = nmse(truth, est).value
        assert nmse(scale * truth, scale * est).value == pytest.approx(want, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_value_is_trial_order_invariant(self, seed, data):
        truth, est = np.random.default_rng(seed).standard_normal((2, 40, 8))
        order = np.array(data.draw(st.permutations(range(40))))
        want = nmse(truth, est).value
        assert nmse(truth[order], est[order]).value == pytest.approx(want, rel=1e-12)
