"""Optimizer tests: hand-computed update steps, convergence, and guard rails."""

import numpy as np
import pytest

from ambcest import (
    Adam,
    DenoiserHyper,
    NumericError,
    ParameterError,
    SGDMomentum,
    ShapeError,
    build_model,
    make_optimizer,
    mse_loss,
)


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


def reference_step(opt, params: dict, grads: dict, state: dict) -> None:
    """A per-array update loop with today's expressions, one moment buffer per name."""
    opt.step_count += 1
    for name, p in params.items():
        g = grads[name]
        if isinstance(opt, Adam):
            b1, b2 = opt.betas
            bc1, bc2 = 1.0 - b1**opt.step_count, 1.0 - b2**opt.step_count
            m = state.setdefault(("m", name), np.zeros_like(p))
            v = state.setdefault(("v", name), np.zeros_like(p))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= opt.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        else:
            v = state.setdefault(name, np.zeros_like(p))
            v *= opt.momentum
            v -= opt.learning_rate * g
            p += v


@pytest.mark.parametrize("kind", ["adam", "sgd_momentum"])
def test_a_step_on_the_parameter_vector_equals_the_per_array_loop_bit_for_bit(kind):
    # 50 float32 train steps of the criterion-7 net: the optimizer steps the net's whole
    # parameter vector as one entry, as train does, and the reference loop applies the
    # same gradients to copies of each parameter block
    hyper = DenoiserHyper(blocks=2, layers_per_block=4, filters=16, ma=8, mb=8, pilots=2)
    model = build_model(hyper, rng=0).train_mode()
    lr = {"adam": 1e-3, "sgd_momentum": 1e-4}[kind]
    opt, ref_opt = make_optimizer(kind, lr), make_optimizer(kind, lr)
    ref = {name: p.copy() for name, p in model.named_parameters().items()}
    ref_state = {}
    rng = np.random.default_rng(7)
    for _ in range(50):
        y = rng.standard_normal((16, 8, 8, 2)).astype(np.float32)
        _, grad = mse_loss(model.forward(y), rng.standard_normal((16, 8, 8)).astype(np.float32))
        model.backward(grad / 16)
        reference_step(ref_opt, ref, {k: g.copy() for k, g in model.named_gradients().items()}, ref_state)
        opt.step({"net": model.state[: model.num_parameters()]}, {"net": model.grad})
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.view(np.uint64), ref[name].view(np.uint64)), name
