"""Linear-analysis tests: basis probing, regime detection, MMSE weight targets."""

import numpy as np
import pytest

from ambcest import (
    DenoiserHyper,
    LinearMap,
    MetricError,
    MmseContext,
    ShapeError,
    StateError,
    build_model,
    extract_effective_map,
    map_distance,
    matrix_mmse_map,
    mmse_weight_target,
)
from ambcest.analysis import REGIME_FULL, REGIME_RIGHT
from conftest import iid_config, set_model_to_ls

ONE_BY_ONE = DenoiserHyper(blocks=1, layers_per_block=2, filters=4, ma=2, mb=2, pilots=2, kernel_size=1)
THREE_BY_THREE = DenoiserHyper(blocks=1, layers_per_block=2, filters=4, ma=2, mb=2, pilots=2, kernel_size=3)


def linearized(hyper, rng_seed=0):
    model = build_model(hyper, rng=rng_seed).eval_mode()
    model.analysis = True
    return model


class TestLinearMap:
    def test_right_map_applies_to_wide_layout(self, rng):
        A = rng.standard_normal((4, 2))
        lmap = LinearMap(matrix=A, ma=3, mb=2, pilots=2)
        y = rng.standard_normal((5, 3, 2, 2))
        wide = np.concatenate([y[..., 0], y[..., 1]], axis=-1)
        assert np.allclose(lmap.apply(y), wide @ A, atol=1e-14)

    def test_full_map_round_trip_through_lift(self, rng):
        A = rng.standard_normal((4, 2))
        lmap = LinearMap(matrix=A, ma=3, mb=2, pilots=2)
        lifted = lmap.as_full()
        assert lifted.regime == REGIME_FULL
        assert lifted.matrix.shape == (12, 6)
        y = rng.standard_normal((4, 3, 2, 2))
        assert np.allclose(lmap.apply(y), lifted.apply(y), atol=1e-12)

    def test_offset_is_added(self, rng):
        off = rng.standard_normal((2, 2))
        lmap = LinearMap(matrix=np.zeros((4, 2)), ma=2, mb=2, pilots=2, offset=off)
        y = rng.standard_normal((2, 2, 2))
        assert np.allclose(lmap.apply(y), off, atol=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            LinearMap(matrix=np.zeros((3, 2)), ma=2, mb=2, pilots=2)
        with pytest.raises(ShapeError):
            LinearMap(matrix=np.zeros((4, 2)), ma=2, mb=2, pilots=2, regime="left")

    def test_non_finite_matrix_rejected(self):
        bad = np.full((4, 2), np.nan)
        with pytest.raises(MetricError):
            LinearMap(matrix=bad, ma=2, mb=2, pilots=2)


class TestExtraction:
    def test_requires_eval_mode(self):
        model = build_model(ONE_BY_ONE, rng=0)
        model.analysis = True
        with pytest.raises(StateError):
            extract_effective_map(model)

    def test_nonlinear_model_rejected(self):
        model = build_model(THREE_BY_THREE, rng=0).eval_mode()  # analysis mode off
        with pytest.raises(StateError, match="superposition"):
            extract_effective_map(model)

    def test_one_by_one_kernels_collapse_to_right_regime(self):
        lmap = extract_effective_map(linearized(ONE_BY_ONE))
        assert lmap.regime == REGIME_RIGHT
        assert lmap.matrix.shape == (4, 2)

    def test_three_by_three_kernels_need_the_full_regime(self):
        lmap = extract_effective_map(linearized(THREE_BY_THREE))
        assert lmap.regime == REGIME_FULL
        assert lmap.matrix.shape == (8, 4)

    @pytest.mark.parametrize("hyper", [ONE_BY_ONE, THREE_BY_THREE])
    def test_extracted_map_reproduces_the_forward_pass(self, hyper, rng):
        model = linearized(hyper, rng_seed=3)
        lmap = extract_effective_map(model)
        y = rng.standard_normal((6, 2, 2, 2))
        assert np.abs(lmap.apply(y) - model.forward(y)).max() < 1e-12

    def test_ls_configuration_extracts_the_averaging_map(self):
        model = set_model_to_ls(build_model(ONE_BY_ONE, rng=0)).eval_mode()
        model.analysis = True
        lmap = extract_effective_map(model)
        assert lmap.regime == REGIME_RIGHT
        want = 0.5 * np.vstack([np.eye(2), np.eye(2)])  # average the two pilot blocks
        assert np.abs(lmap.matrix - want).max() < 1e-14
        assert np.abs(lmap.offset).max() == 0.0

    def test_recon_bias_lands_in_the_offset(self, rng):
        model = linearized(ONE_BY_ONE, rng_seed=1)
        model.recon.b[...] = 0.7
        lmap = extract_effective_map(model)
        assert np.allclose(lmap.offset, model.forward(np.zeros((1, 2, 2, 2)))[0], atol=1e-15)
        y = rng.standard_normal((3, 2, 2, 2))
        assert np.abs(lmap.apply(y) - model.forward(y)).max() < 1e-12


class TestMmseTarget:
    def test_single_pilot_iid_target_is_half_identity(self):
        # P=1, C=I, sigma^2=1, Ma=1: A* = (1 + 1)^-1 I = I/2
        ctx = MmseContext(r_x=np.eye(3), sigma_u_sq=1.0, ma=1, mb=3, pilots=1)
        target = mmse_weight_target(ctx)
        assert target.regime == REGIME_RIGHT
        assert np.allclose(target.matrix, 0.5 * np.eye(3), atol=1e-12)

    def test_two_pilot_iid_target_stacks_thirds(self):
        # P=2, C=I, sigma^2=1: x_hat = (y0 + y1)/3, so A* = (1/3) [I; I]
        ctx = MmseContext.from_column_cov(np.eye(2), 1.0, 4, 2)
        want = np.vstack([np.eye(2), np.eye(2)]) / 3.0
        assert np.abs(mmse_weight_target(ctx).matrix - want).max() < 1e-12

    def test_matches_matrix_form_map(self):
        C = np.array([[1.2, 0.4], [0.4, 0.9]])
        ctx = MmseContext.from_column_cov(C, 0.8, 2, 3)
        assert np.array_equal(mmse_weight_target(ctx).matrix, matrix_mmse_map(ctx))


class TestMapDistance:
    def test_zero_for_identical_maps(self):
        ctx = MmseContext.from_column_cov(np.eye(4), 1.0, 4, 2)
        target = mmse_weight_target(ctx)
        dist = map_distance(target, target, iid_config(snr_db=0.0), "direct", trials=500)
        assert dist.frobenius_rel == 0.0
        assert dist.nmse_gap == 0.0
        assert dist.nmse_learned == dist.nmse_target

    def test_zero_map_scores_full_nmse(self):
        ctx = MmseContext.from_column_cov(np.eye(4), 1.0, 4, 2)
        target = mmse_weight_target(ctx)
        zero = LinearMap(matrix=np.zeros_like(target.matrix), ma=4, mb=4, pilots=2)
        dist = map_distance(zero, target, iid_config(snr_db=0.0), "direct", trials=500)
        assert dist.frobenius_rel == 1.0
        assert dist.nmse_learned == pytest.approx(1.0, abs=1e-12)
        assert dist.nmse_gap > 0.5  # target sits near 1/3

    def test_target_risk_matches_theory(self):
        ctx = MmseContext.from_column_cov(np.eye(4), 1.0, 4, 2)
        target = mmse_weight_target(ctx)
        dist = map_distance(
            target, target, iid_config(snr_db=0.0), "direct",
            trials=4000, rng=np.random.default_rng(5),
        )
        assert dist.nmse_target == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_regime_mismatch_rejected(self):
        ctx = MmseContext.from_column_cov(np.eye(4), 1.0, 4, 2)
        target = mmse_weight_target(ctx)
        with pytest.raises(ShapeError):
            map_distance(target.as_full(), target, iid_config(), "direct")

    def test_zero_norm_target_rejected(self):
        ctx = MmseContext.from_column_cov(np.eye(4), 1.0, 4, 2)
        zero = LinearMap(matrix=np.zeros((8, 4)), ma=4, mb=4, pilots=2)
        with pytest.raises(MetricError):
            map_distance(mmse_weight_target(ctx), zero, iid_config(), "direct")

    def test_perturbation_is_detected(self, rng):
        ctx = MmseContext.from_column_cov(np.eye(4), 1.0, 4, 2)
        target = mmse_weight_target(ctx)
        bumped = LinearMap(
            matrix=target.matrix + 0.05 * rng.standard_normal(target.matrix.shape),
            ma=4, mb=4, pilots=2,
        )
        dist = map_distance(bumped, target, iid_config(snr_db=0.0), "direct", trials=2000)
        assert dist.frobenius_rel > 0.01
        assert dist.nmse_gap > 0.0  # any deviation from the optimum costs NMSE
