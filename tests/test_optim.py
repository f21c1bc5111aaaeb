"""Optimizer tests: hand-computed update steps, convergence, and guard rails."""

import numpy as np
import pytest

from ambcest import Adam, NumericError, ParameterError, SGDMomentum, ShapeError, make_optimizer


def quadratic_grads(params):
    """Gradient of 0.5*||p||^2 for every parameter block."""
    return {name: p.copy() for name, p in params.items()}


class TestSGDMomentum:
    def test_first_step_is_plain_descent(self):
        params = {"p": np.array([1.0, -2.0])}
        opt = SGDMomentum(learning_rate=0.1, momentum=0.9)
        opt.step(params, {"p": np.array([2.0, 2.0])})
        assert np.allclose(params["p"], [0.8, -2.2], atol=1e-15)

    def test_velocity_accumulates(self):
        params = {"p": np.array([0.0])}
        opt = SGDMomentum(learning_rate=1.0, momentum=0.5)
        opt.step(params, {"p": np.array([1.0])})  # v = -1,   p = -1
        opt.step(params, {"p": np.array([1.0])})  # v = -1.5, p = -2.5
        assert params["p"][0] == pytest.approx(-2.5)
        assert opt.step_count == 2

    def test_converges_on_quadratic(self):
        params = {"p": np.array([5.0, -3.0, 1.0])}
        opt = SGDMomentum(learning_rate=0.1, momentum=0.5)
        for _ in range(200):
            opt.step(params, quadratic_grads(params))
        assert np.abs(params["p"]).max() < 1e-8

    def test_updates_in_place(self):
        arr = np.array([1.0])
        SGDMomentum(learning_rate=0.5, momentum=0.0).step({"p": arr}, {"p": np.array([1.0])})
        assert arr[0] == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_bad_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            SGDMomentum(**{"learning_rate": 0.1, **kwargs})


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # with bias correction the first update is lr * g/|g| (up to eps)
        params = {"p": np.array([1.0, 1.0])}
        Adam(learning_rate=0.01).step(params, {"p": np.array([100.0, -0.5])})
        assert np.allclose(params["p"], [0.99, 1.01], atol=1e-6)

    def test_hand_computed_second_step(self):
        params = {"p": np.array([0.0])}
        opt = Adam(learning_rate=0.1)
        opt.step(params, {"p": np.array([1.0])})
        opt.step(params, {"p": np.array([2.0])})
        first = -0.1 * 1.0 / (1.0 + Adam.eps)  # m/bc1 = 1 and sqrt(v/bc2) = 1 after one step
        m = 0.9 * 0.1 + 0.1 * 2.0  # after two raw moment updates
        v = 0.999 * 0.001 + 0.001 * 4.0
        want = first - 0.1 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + Adam.eps)
        assert params["p"][0] == pytest.approx(want, rel=1e-12)

    def test_betas_and_eps_are_class_constants(self):
        assert (Adam.betas, Adam.eps) == ((0.9, 0.999), 1e-8)
        assert not {"betas", "eps"} & set(vars(Adam(learning_rate=0.1)))

    def test_converges_on_quadratic(self):
        params = {"p": np.array([5.0, -3.0])}
        opt = Adam(learning_rate=0.1)
        for _ in range(500):
            opt.step(params, quadratic_grads(params))
        assert np.abs(params["p"]).max() < 1e-4

    def test_moment_buffers_keyed_by_name(self):
        params = {"a": np.zeros(2), "b": np.zeros(3)}
        opt = Adam()
        opt.step(params, {"a": np.ones(2), "b": np.ones(3)})
        assert set(opt.m) == {"a", "b"} and opt.m["b"].shape == (3,)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ParameterError):
            Adam(learning_rate=lr)


class TestGuards:
    def test_missing_gradient_rejected(self):
        with pytest.raises(ShapeError):
            Adam().step({"p": np.zeros(2)}, {})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Adam().step({"p": np.zeros(2)}, {"p": np.zeros(3)})

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(NumericError):
            SGDMomentum().step({"p": np.zeros(2)}, {"p": np.array([1.0, np.nan])})


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_optimizer("adam", 0.01), Adam)
        opt = make_optimizer("sgd_momentum", 0.01, momentum=0.7)
        assert isinstance(opt, SGDMomentum) and opt.momentum == 0.7

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            make_optimizer("lion", 0.01)
