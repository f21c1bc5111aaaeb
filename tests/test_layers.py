"""Layer tests: conv against a scipy oracle, batch norm moments, activations, loss, the
layers against the reference formulas they replaced, and the conv's fused taps against
its numpy path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from ambcest import (
    BatchNorm2D,
    Conv2D,
    ParameterError,
    ReLU,
    ShapeError,
    grad_check,
    grad_check_input,
    mse_loss,
)
from ambcest import layers
from ambcest.layers import _channel_sum, _conv


def conv_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded cross-correlation computed channel by channel with scipy."""
    n, h, wd, c_in = x.shape
    k_out = w.shape[0]
    out = np.zeros((n, h, wd, k_out))
    for i in range(n):
        for k in range(k_out):
            acc = np.full((h, wd), b[k])
            for c in range(c_in):
                acc += signal.correlate2d(x[i, :, :, c], w[k, :, :, c], mode="same")
            out[i, :, :, k] = acc
    return out


class TestConv2D:
    def test_matches_scipy_reference(self, rng):
        conv = Conv2D(3, 5, kernel_size=3).reset(rng)
        conv.b = rng.standard_normal(5)
        x = rng.standard_normal((4, 6, 7, 3))
        assert np.allclose(conv.forward(x), conv_reference(x, conv.w, conv.b), atol=1e-12)

    # a 1x1 conv on a 1x1 grid is the full affine map x @ w.T + b on flattened inputs
    @pytest.mark.parametrize("c_in, c_out, shape", [(2, 3, (2, 4, 4)), (3, 2, (5, 1, 1))],
                             ids=["4x4-grid", "1x1-grid"])
    def test_matches_scipy_one_by_one(self, c_in, c_out, shape, rng):
        conv = Conv2D(c_in, c_out, kernel_size=1).reset(rng)
        conv.b[...] = rng.standard_normal(c_out)
        x = rng.standard_normal((*shape, c_in))
        assert np.allclose(conv.forward(x), conv_reference(x, conv.w, conv.b), atol=1e-12)

    def test_identity_kernel_is_passthrough(self, rng):
        conv = Conv2D(1, 1, kernel_size=3)
        conv.w[0, 1, 1, 0] = 1.0  # centered delta
        x = rng.standard_normal((2, 5, 5, 1))
        assert np.allclose(conv.forward(x), x, atol=1e-15)

    def test_single_example_rejected(self, rng):
        with pytest.raises(ShapeError):
            Conv2D(2, 2).reset(rng).forward(rng.standard_normal((4, 4, 2)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError):
            Conv2D(1, 1, kernel_size=2)

    def test_wrong_channel_count_rejected(self, rng):
        with pytest.raises(ShapeError):
            Conv2D(3, 1).forward(rng.standard_normal((1, 4, 4, 2)))
        with pytest.raises(ShapeError):
            Conv2D(3, 2, kernel_size=1).forward(rng.standard_normal((5, 1, 1, 4)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ShapeError):
            Conv2D(1, 1).backward(np.zeros((1, 4, 4, 1)))

    @pytest.mark.parametrize("k, c_in, c_out, shape", [(3, 2, 3, (2, 4, 4)), (1, 4, 3, (6, 1, 1))],
                             ids=["3x3", "1x1-on-1x1-grid"])
    def test_parameter_gradients(self, k, c_in, c_out, shape, rng):
        conv = Conv2D(c_in, c_out, kernel_size=k).reset(rng)
        x = rng.standard_normal((*shape, c_in)) + 0.3  # keep away from relu-style kinks

        def loss_fn():
            out = conv.forward(x)
            return float(np.sum(out * out))

        out = conv.forward(x)
        conv.backward(2.0 * out)
        report = grad_check(loss_fn, conv.named_parameters("c"), conv.named_gradients("c"))
        assert report.passed, str(report)

    def test_input_gradient(self, rng):
        conv = Conv2D(2, 2).reset(rng)
        x = rng.standard_normal((1, 3, 3, 2))
        grad_in = conv.backward(2.0 * conv.forward(x))

        def loss_fn():
            out = conv.forward(x)
            return float(np.sum(out * out))

        report = grad_check_input(loss_fn, x, grad_in)
        assert report.passed, str(report)


class TestBatchNorm2D:
    def test_train_mode_normalizes_batch(self, rng):
        bn = BatchNorm2D(3)
        x = 5.0 + 2.0 * rng.standard_normal((8, 4, 4, 3))
        out = bn.forward(x)
        assert np.abs(out.mean(axis=(0, 1, 2))).max() < 1e-10
        assert np.abs(out.var(axis=(0, 1, 2)) - 1.0).max() < 1e-3  # eps shrinks it slightly

    def test_affine_parameters_applied(self, rng):
        bn = BatchNorm2D(2)
        bn.gamma = np.array([2.0, 3.0])
        bn.beta = np.array([-1.0, 4.0])
        out = bn.forward(rng.standard_normal((6, 3, 3, 2)))
        assert out.mean(axis=(0, 1, 2)) == pytest.approx([-1.0, 4.0], abs=1e-10)

    def test_eps_and_momentum_are_class_constants(self):
        # one eps for every batch norm: the benchmark's reference forward applies one value
        assert (BatchNorm2D.eps, BatchNorm2D.momentum) == (1e-5, 0.1)
        assert not {"eps", "momentum"} & set(vars(BatchNorm2D(2)))

    def test_running_stats_update_rule(self, rng):
        bn = BatchNorm2D(2)
        x = rng.standard_normal((5, 3, 3, 2)) + 1.5
        bn.forward(x)
        mu = BatchNorm2D.momentum
        want_mean = mu * x.mean(axis=(0, 1, 2))
        want_var = (1 - mu) * 1.0 + mu * x.var(axis=(0, 1, 2))
        assert np.allclose(bn.running_mean, want_mean, atol=1e-12)
        assert np.allclose(bn.running_var, want_var, atol=1e-12)

    def test_eval_mode_is_fixed_affine(self, rng):
        bn = BatchNorm2D(2)
        bn.forward(rng.standard_normal((8, 3, 3, 2)))
        bn.mode = BatchNorm2D.EVAL
        x = rng.standard_normal((4, 3, 3, 2))
        want = bn.gamma * (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) + bn.beta
        out = bn.forward(x)
        assert np.allclose(out, want, atol=1e-12)
        assert np.array_equal(bn.forward(x), out)  # no state drift in eval mode

    def test_single_element_train_batch_rejected(self):
        with pytest.raises(ParameterError):
            BatchNorm2D(1).forward(np.zeros((1, 1, 1, 1)))

    def test_single_example_rejected(self, rng):
        with pytest.raises(ShapeError):
            BatchNorm2D(2).forward(rng.standard_normal((4, 4, 2)))

    @pytest.mark.parametrize("mode", [BatchNorm2D.TRAIN, BatchNorm2D.EVAL])
    def test_gradients(self, mode, rng):
        bn = BatchNorm2D(2)
        bn.gamma = 1.0 + 0.1 * rng.standard_normal(2)
        bn.beta = 0.1 * rng.standard_normal(2)
        bn.forward(rng.standard_normal((6, 3, 3, 2)))  # populate running stats
        bn.mode = mode
        x = rng.standard_normal((6, 3, 3, 2))
        target = rng.standard_normal((6, 3, 3, 2))

        def loss_fn():
            loss, _ = mse_loss(bn.forward(x), target)
            return loss

        _, grad = mse_loss(bn.forward(x), target)
        grad_in = bn.backward(grad)
        report = grad_check(loss_fn, bn.named_parameters("bn"), bn.named_gradients("bn"))
        assert report.passed, str(report)

        def loss_on_input():
            loss, _ = mse_loss(bn.forward(x), target)
            return loss

        report = grad_check_input(loss_on_input, x, grad_in)
        assert report.passed, str(report)


class TestReLU:
    def test_forward_clamps_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([-2.0, 0.0, 3.0]))
        assert np.array_equal(out, [0.0, 0.0, 3.0])

    def test_backward_masks_gradient(self):
        relu = ReLU()
        relu.forward(np.array([-1.0, 2.0]))
        assert np.array_equal(relu.backward(np.array([5.0, 5.0])), [0.0, 5.0])

    def test_gradient_away_from_kink(self, rng):
        relu = ReLU()
        x = np.sign(rng.standard_normal((4, 4))) * (1.0 + rng.random((4, 4)))

        def loss_fn():
            out = relu.forward(x)
            return float(np.sum(out * out))

        grad_in = relu.backward(2.0 * relu.forward(x))
        report = grad_check_input(loss_fn, x, grad_in)
        assert report.passed, str(report)


class TestMseLoss:
    def test_value_is_total_squared_error(self):
        loss, _ = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert loss == 5.0

    def test_gradient_is_twice_residual(self, rng):
        pred = rng.standard_normal((3, 4))
        target = rng.standard_normal((3, 4))
        _, grad = mse_loss(pred, target)
        assert np.allclose(grad, 2.0 * (pred - target), atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros(3), np.zeros(4))


stateful_layers = pytest.mark.parametrize("make, x, params, stats", [
    (lambda rng: Conv2D(2, 3).reset(rng), (2, 4, 4, 2), ["w", "b"], []),
    (lambda rng: Conv2D(4, 3, kernel_size=1).reset(rng), (2, 1, 1, 4), ["w", "b"], []),
    (lambda rng: BatchNorm2D(3), (2, 4, 4, 3), ["gamma", "beta"], ["running_mean", "running_var"]),
], ids=["Conv2D", "Conv2D-1x1-grid", "BatchNorm2D"])


@stateful_layers
def test_state_naming_returns_the_live_arrays_in_declared_order(make, x, params, stats, rng):
    layer = make(rng)
    out = layer.forward(rng.standard_normal(x))
    layer.backward(np.ones_like(out))  # a standalone layer's first backward allocates its gradients
    for named, keys, attrs in [
        (layer.named_parameters("l"), params, params),
        (layer.named_gradients("l"), params, [f"grad_{name}" for name in params]),
        (layer.running_stats("l"), stats, stats),
    ]:
        assert list(named) == [f"l.{key}" for key in keys]
        assert all(arr is getattr(layer, attr) for arr, attr in zip(named.values(), attrs))


@stateful_layers
def test_gradients_read_as_zeros_until_backward(make, x, params, stats, rng):
    layer = make(rng)
    layer.forward(rng.standard_normal(x))  # forward alone writes no gradient
    grads = layer.named_gradients("l")
    assert list(grads) == [f"l.{name}" for name in params]
    for name, grad in zip(params, grads.values()):
        assert grad.shape == getattr(layer, name).shape and grad.dtype == np.float64
        assert not np.any(grad)
        assert getattr(layer, f"grad_{name}") is None  # the zeros were not stored


DTYPES = [np.float32, np.float64]


def assert_float64_gradients(layer):
    assert all(g.dtype == np.float64 for g in layer.named_gradients("l").values())


class TestComputeDtype:
    """Forward and backward follow the input's dtype; parameters and gradients stay float64.

    A float64 parameter meeting a float32 activation would silently upcast the whole
    pass to float64, so each layer is checked on its own.
    """

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k, c_in, shape", [(3, 2, (2, 4, 4)), (1, 4, (5, 1, 1))],
                             ids=["3x3", "1x1-on-1x1-grid"])
    def test_conv(self, k, c_in, shape, dtype, rng):
        conv = Conv2D(c_in, 3, kernel_size=k).reset(rng)
        out = conv.forward(rng.standard_normal((*shape, c_in)).astype(dtype))
        assert out.dtype == dtype
        assert conv.backward(np.ones_like(out)).dtype == dtype
        assert conv.w.dtype == conv.b.dtype == np.float64
        assert_float64_gradients(conv)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode", [BatchNorm2D.TRAIN, BatchNorm2D.EVAL])
    def test_batch_norm(self, mode, dtype, rng):
        bn = BatchNorm2D(2)
        bn.mode = mode
        out = bn.forward(rng.standard_normal((3, 4, 4, 2)).astype(dtype))
        assert out.dtype == dtype
        assert bn.backward(np.ones_like(out)).dtype == dtype
        assert all(a.dtype == np.float64 for a in bn.running_stats("l").values())
        assert_float64_gradients(bn)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_relu(self, dtype, rng):
        relu = ReLU()
        out = relu.forward(rng.standard_normal((2, 3)).astype(dtype))
        assert out.dtype == dtype
        assert relu.backward(np.ones_like(out)).dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mse_loss(self, dtype, rng):
        loss, grad = mse_loss(rng.standard_normal((3, 4)).astype(dtype), rng.standard_normal((3, 4)).astype(dtype))
        assert grad.dtype == dtype
        assert type(loss) is float

    def test_backward_runs_in_the_forward_dtype(self, rng):
        conv = Conv2D(2, 3).reset(rng)
        out = conv.forward(rng.standard_normal((2, 4, 4, 2)).astype(np.float32))
        assert conv.backward(np.ones(out.shape)).dtype == np.float32

    def test_other_dtypes_compute_in_float64(self, rng):
        x = rng.standard_normal((2, 4, 4, 2))
        conv = Conv2D(2, 3).reset(rng)
        assert conv.forward(x.astype(np.float16)).dtype == np.float64
        assert ReLU().forward(np.arange(3)).dtype == np.float64
        _, grad = mse_loss(x.astype(np.float32), x)  # a float64 target keeps float64
        assert grad.dtype == np.float64


# -- the earlier layer formulas, kept as the reference for the in-place layer code ------


def ref_conv(x, w, b):
    """np.pad once per call, one GEMM per tap; returns (out, backward(g))."""
    k = w.shape[1]
    pad = k // 2
    n, h, wd, c = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    windows = {(dy, dx): xp[:, dy : dy + h, dx : dx + wd, :].reshape(n * h * wd, c)
               for dy in range(k) for dx in range(k)}
    out = np.full((n * h * wd, w.shape[0]), b)
    for (dy, dx), win in windows.items():
        out += win @ w[:, dy, dx, :].T

    def backward(g):
        gmat = g.reshape(n * h * wd, w.shape[0])
        grad_w = np.empty_like(w)
        grad_pad = np.zeros(xp.shape)
        for (dy, dx), win in windows.items():
            grad_w[:, dy, dx, :] = gmat.T @ win
            grad_pad[:, dy : dy + h, dx : dx + wd, :] += (gmat @ w[:, dy, dx, :]).reshape(n, h, wd, c)
        return grad_pad[:, pad : pad + h, pad : pad + wd, :], grad_w, gmat.sum(axis=0)

    return out.reshape(n, h, wd, w.shape[0]), backward


def ref_batch_norm(x, bn, mode):
    """Batch norm with x.mean/x.var moments; returns (out, running stats, backward(g))."""
    if mode == BatchNorm2D.TRAIN:
        mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
        running = ((1 - bn.momentum) * bn.running_mean + bn.momentum * mean,
                   (1 - bn.momentum) * bn.running_var + bn.momentum * var)
    else:
        mean, var = bn.running_mean, bn.running_var
        running = (bn.running_mean, bn.running_var)
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean) * inv_std

    def backward(g):
        dxhat = g * bn.gamma
        if mode == BatchNorm2D.TRAIN:
            grad_in = (dxhat - dxhat.mean(axis=(0, 1, 2))
                       - xhat * np.mean(dxhat * xhat, axis=(0, 1, 2))) * inv_std
        else:
            grad_in = dxhat * inv_std
        return grad_in, np.sum(g * xhat, axis=(0, 1, 2)), np.sum(g, axis=(0, 1, 2))

    return bn.gamma * xhat + bn.beta, running, backward


def ref_relu(x):
    mask = x > 0
    return np.where(mask, x, 0.0), lambda g: np.where(mask, g, 0.0)


def spatial_major_view(a):
    """An (N, H, W, C) view of a's values held in (H, W, N, C) memory, as a conv returns."""
    return np.ascontiguousarray(a.transpose(1, 2, 0, 3)).transpose(2, 0, 1, 3)


def assert_matches_reference(got, ref, dtype):
    """float64: rtol 1e-12 (atol 1e-12 of max|ref| for entries that cancel to near zero);
    float32: within 1e-5 of max|ref|."""
    got, ref = np.asarray(got), np.asarray(ref, dtype=np.float64)
    scale = np.max(np.abs(ref)) if ref.size else 0.0
    if dtype == np.float64:
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
    else:
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-5 * scale


def seeded_batch_norm(rng, channels, mode):
    bn = BatchNorm2D(channels)
    bn.gamma[...] = rng.uniform(0.5, 2.0, channels)
    bn.beta[...] = rng.standard_normal(channels)
    bn.running_mean[...] = rng.standard_normal(channels)
    bn.running_var[...] = rng.uniform(0.5, 2.0, channels)
    bn.mode = mode
    return bn


CONV_CASES = [
    pytest.param(1, 3, 5, (4, 6, 7), id="1"),
    pytest.param(3, 3, 5, (4, 6, 7), id="3"),
    # a narrower output: forward takes the spatial-major taps and the input gradient,
    # a conv with 2 input channels, im2col; N*H*W = 512 is two whole 256-row blocks of
    # the float32 grad_b sum, and 315 leaves 59 rows over
    pytest.param(3, 5, 2, (4, 6, 7), id="3-5to2"),
    pytest.param(3, 16, 2, (8, 8, 8), id="3-16to2-whole-blocks"),
    pytest.param(1, 16, 2, (5, 9, 7), id="1-16to2-partial-block"),
    # each layout of the conv kernel: im2col for a shallow input, spatial-major taps
    # for a deep one (dx shifts of +-2 at k=5, on an odd grid), a batch of one, and
    # a 1x1 conv, which is one GEMM whatever its depth
    pytest.param(3, 2, 64, (4, 6, 7), id="3-2to64-im2col"),
    pytest.param(3, 16, 16, (4, 6, 7), id="3-16to16-spatial"),
    pytest.param(3, 64, 64, (4, 8, 8), id="3-64to64-spatial"),
    pytest.param(5, 3, 4, (3, 7, 9), id="5-3to4-odd-grid"),
    pytest.param(3, 16, 16, (1, 6, 7), id="3-16to16-n1"),
    pytest.param(1, 16, 16, (4, 6, 7), id="1-16to16"),
    # taps wholly off the grid: a 5x5 kernel on a 2x2 grid, where the dy, dx = +-2 taps
    # read no row, and a grid of one row, where every dy != p tap reads none (at k=5
    # some reach further than the grid is tall)
    pytest.param(5, 16, 16, (3, 2, 2), id="5-16to16-2x2"),
    pytest.param(3, 16, 16, (4, 1, 7), id="3-16to16-one-row"),
    pytest.param(5, 16, 16, (4, 1, 7), id="5-16to16-one-row"),
    # a 1x1 conv on a 1x1 grid, the dense reconstruction head: the full affine map, at
    # a batch with a float32 grad_b block and rows left over
    pytest.param(1, 32, 16, (300, 1, 1), id="1-32to16-1x1-grid"),
]


@pytest.fixture
def fused_taps(monkeypatch):
    """The fused-taps rule of _conv forced on for every shape; returns the list of the
    operands of each _GemmAdd that _conv makes."""
    if layers._BLAS is None:
        pytest.skip("numpy's OpenBLAS library was not found")
    monkeypatch.setattr(layers, "BLAS_FUSED_MNK", 0)
    monkeypatch.setattr(layers, "BLAS_FUSED_ROWS", 0)
    made = []

    class Recorded(layers._GemmAdd):
        def __init__(self, *operands):
            super().__init__(*operands)
            made.append(operands)

    monkeypatch.setattr(layers, "_GemmAdd", Recorded)
    return made


class TestAgainstReference:
    """Forward and backward of Conv2D, BatchNorm2D and ReLU against the formulas above.

    float32 results are held against the float64 reference of the same input."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k, c_in, c_out, shape", CONV_CASES)
    def test_conv(self, k, c_in, c_out, shape, dtype, rng):
        conv = Conv2D(c_in, c_out, kernel_size=k).reset(rng)
        conv.b[...] = rng.standard_normal(c_out)
        x = rng.standard_normal((*shape, c_in)).astype(dtype)
        g = rng.standard_normal((*shape, c_out)).astype(dtype)
        out, backward = ref_conv(x.astype(np.float64), conv.w, conv.b)
        grad_in, grad_w, grad_b = backward(g.astype(np.float64))
        # a C-contiguous batch, then the same values in a conv output's spatial-major memory
        for layout in (lambda a: a, spatial_major_view):
            assert_matches_reference(conv.forward(layout(x)), out, dtype)
            assert_matches_reference(conv.backward(layout(g)), grad_in, dtype)
            assert_matches_reference(conv.grad_w, grad_w, dtype)
            assert_matches_reference(conv.grad_b, grad_b, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_conv_over_blocks_of_output_rows(self, block_rows, dtype, rng, monkeypatch):
        # the spatial-major taps add in blocks of output rows; small blocks on an odd grid
        # leave a k=5 tap with no row in some blocks and part of a row range in others
        shape, k_out = (3, 7, 5), 16
        row_bytes = shape[0] * shape[2] * k_out * np.dtype(dtype).itemsize
        monkeypatch.setattr(layers, "_BLOCK_BYTES", block_rows * row_bytes)
        self.test_conv(5, 16, k_out, shape, dtype, rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k, c_in, c_out, shape", CONV_CASES)
    def test_conv_with_fused_taps(self, k, c_in, c_out, shape, dtype, rng, fused_taps):
        # the same cases with the fused-taps rule forced on, so each spatial-major conv,
        # the forward's or the input gradient's, adds its shifted taps inside BLAS
        self.test_conv(k, c_in, c_out, shape, dtype, rng)
        assert bool(fused_taps) == (k > 1 and k * k * max(c_in, c_out) > layers._IM2COL_DEPTH)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_conv_over_blocks_with_fused_taps(self, block_rows, dtype, rng, monkeypatch, fused_taps):
        self.test_conv_over_blocks_of_output_rows(block_rows, dtype, rng, monkeypatch)
        assert fused_taps

    def test_conv_reads_another_convs_output_in_place(self, rng):
        # a conv output is spatial-major, so the next conv caches its rows without a copy
        first, second = Conv2D(3, 16).reset(rng), Conv2D(16, 16).reset(rng)
        hidden = first.forward(rng.standard_normal((4, 6, 7, 3)))
        second.forward(hidden)
        assert np.shares_memory(second._cache[1], hidden)

    def test_channel_sum_reads_a_spatial_major_view(self, rng):
        x = rng.standard_normal((8, 8, 8, 5)).astype(np.float32)
        ref = x.astype(np.float64).sum(axis=(0, 1, 2))
        view = spatial_major_view(x)
        assert not view.flags.c_contiguous
        # rows summed in another order: equal to the C-contiguous copy's sum within the
        # float32 tolerance, not bit for bit
        assert_matches_reference(_channel_sum(view), _channel_sum(x), np.float32)
        assert_matches_reference(_channel_sum(view), ref, np.float32)

    @pytest.mark.parametrize("k, c_in, layout", [
        (3, 2, "im2col"), (3, 3, "im2col"), (1, 64, "im2col"), (3, 4, "spatial"), (5, 2, "spatial"),
    ])
    def test_conv_layout_follows_the_window_depth(self, k, c_in, layout, rng):
        # the test_conv ids name a layout; this keeps them true: im2col up to
        # k*k*C_in = 32 and for every 1x1 conv, the spatial-major taps above that
        _, cols = _conv(rng.standard_normal((2, 3, 4, c_in)), rng.standard_normal((5, k, k, c_in)), np.zeros(5))
        assert cols.ndim == {"im2col": 2, "spatial": 4}[layout]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode, shape", [
        pytest.param(BatchNorm2D.TRAIN, (5, 6, 7), id="train"),
        pytest.param(BatchNorm2D.EVAL, (5, 6, 7), id="eval"),
        # float32 sums run over 256-row blocks: two whole ones, then one and 59 rows over
        pytest.param(BatchNorm2D.TRAIN, (8, 8, 8), id="train-whole-blocks"),
        pytest.param(BatchNorm2D.TRAIN, (5, 9, 7), id="train-partial-block"),
    ])
    def test_batch_norm(self, mode, shape, dtype, rng):
        bn = seeded_batch_norm(rng, 4, mode)
        x = (3.0 * rng.standard_normal((*shape, 4)) + 1.0).astype(dtype)
        g = rng.standard_normal((*shape, 4)).astype(dtype)
        out, running, backward = ref_batch_norm(x.astype(np.float64), bn, mode)
        grad_in, grad_gamma, grad_beta = backward(g.astype(np.float64))
        assert_matches_reference(bn.forward(x), out, dtype)
        assert_matches_reference(bn.running_mean, running[0], dtype)
        assert_matches_reference(bn.running_var, running[1], dtype)
        assert_matches_reference(bn.backward(g), grad_in, dtype)
        assert_matches_reference(bn.grad_gamma, grad_gamma, dtype)
        assert_matches_reference(bn.grad_beta, grad_beta, dtype)

    def test_batch_norm_float64_forward_and_moments_are_unchanged_bit_for_bit(self, rng):
        bn = seeded_batch_norm(rng, 4, BatchNorm2D.TRAIN)
        x = 3.0 * rng.standard_normal((5, 6, 7, 4)) + 1.0
        out, running, _ = ref_batch_norm(x, bn, BatchNorm2D.TRAIN)
        assert np.array_equal(bn.forward(x), out)
        assert np.array_equal(bn.running_mean, running[0])
        assert np.array_equal(bn.running_var, running[1])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_relu(self, dtype, rng):
        relu = ReLU()
        x = rng.standard_normal((3, 4, 4, 2)).astype(dtype)
        x[0, 0, 0] = 0.0
        g = rng.standard_normal((3, 4, 4, 2)).astype(dtype)
        out, backward = ref_relu(x)
        assert np.array_equal(relu.forward(x), out)
        assert np.array_equal(relu.backward(g), backward(g))


def _layer_under_test(kind, channels, rng):
    if kind.startswith("conv"):
        return Conv2D(channels, 3, kernel_size=int(kind[-1])).reset(rng)
    if kind == "relu":
        return ReLU()
    return seeded_batch_norm(rng, channels, kind.removeprefix("bn-"))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["conv1", "conv3", "conv5", "bn-train", "bn-eval", "relu"]),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_layer_writes_to_the_arrays_it_is_passed(kind, shape, dtype, seed):
    rng = np.random.default_rng(seed)
    if kind == "bn-train" and shape[0] * shape[1] * shape[2] < 2:
        shape = (2, *shape[1:])
    layer = _layer_under_test(kind, shape[3], rng)
    x = rng.standard_normal(shape).astype(dtype)
    x_before = x.copy()
    out = layer.forward(x)
    out_before = out.copy()
    g = rng.standard_normal(out.shape).astype(dtype)
    g_before = g.copy()
    layer.backward(g)
    assert np.array_equal(x, x_before)
    assert np.array_equal(g, g_before)
    assert np.array_equal(out, out_before)


# every conv of the default net (B=3, L=8, F=64, P=2 on the 8x8 grid) as (k, C_in, K)
DEFAULT_NET_CONVS = [(3, 2, 64), (3, 64, 64), (3, 64, 2), (1, 2, 1)]
# (k, C_in, K, N) just outside each limit of the fused-taps rule: below BLAS_FUSED_MNK
# (64 -> 2, and 16 -> 16 at N = 128), above BLAS_K_PANEL (at the smallest batch whose
# per-row calls reach BLAS_FUSED_ROWS) and one image short of BLAS_FUSED_ROWS
OUTSIDE_THE_RULE = [(3, 64, 2, 256), (3, 16, 16, 128), (3, 512, 512, 64), (3, 64, 64, 63)]
# in a fresh process, so the BLAS thread count can be set: each case's Conv2D forward,
# input gradient, grad_w and grad_b with numpy's OpenBLAS handle and without it
SAME_BITS_SCRIPT = """
import json, sys
import numpy as np
from ambcest import Conv2D, layers
handle, rng, results = layers._BLAS, np.random.default_rng(0), []
for k, c_in, c_out, n in json.loads(sys.argv[1]):
    for dtype in (np.float32, np.float64):
        conv = Conv2D(c_in, c_out, kernel_size=k).reset(rng)
        x = rng.standard_normal((n, 8, 8, c_in)).astype(dtype)
        g = rng.standard_normal((n, 8, 8, c_out)).astype(dtype)
        runs = []
        for layers._BLAS in (handle, None):
            runs.append([a.tobytes() for a in (conv.forward(x), conv.backward(g), conv.grad_w, conv.grad_b)])
        layers._BLAS = handle
        fused = [k > 1 and k * k * c > layers._IM2COL_DEPTH and layers._fused_taps(n, 8, c, c_o, k)
                 for c, c_o in ((c_in, c_out), (c_out, c_in))]
        results.append({"case": [k, c_in, c_out, n], "dtype": np.dtype(dtype).name, "fused": fused,
                        "same": runs[0] == runs[1]})
print(json.dumps(results))
"""


@pytest.mark.skipif(layers._BLAS is None, reason="numpy's OpenBLAS library was not found")
class TestFusedTaps:
    """_conv's shifted taps added inside BLAS against the numpy path: the same bits."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_same_bits_as_the_numpy_path(self, threads):
        cases = [[k, c_in, c_out, n] for k, c_in, c_out in DEFAULT_NET_CONVS for n in (256, 128, 88)]
        cases += [list(case) for case in OUTSIDE_THE_RULE]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
               "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
        proc = subprocess.run([sys.executable, "-c", SAME_BITS_SCRIPT, json.dumps(cases)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        results = json.loads(proc.stdout)
        assert len(results) == 2 * len(cases)
        assert [(r["case"], r["dtype"]) for r in results if not r["same"]] == []
        # 88 is a predict remainder chunk; the F -> F convs fuse forward and backward
        fused = [(tuple(r["case"]), r["fused"]) for r in results if any(r["fused"])]
        assert fused == [((3, 64, 64, n), [True, True]) for n in (256, 128, 88) for _ in DTYPES]

    def test_without_the_handle_conv_takes_the_numpy_path(self, rng, monkeypatch):
        x = rng.standard_normal((128, 8, 8, 64)).astype(np.float32)
        w = rng.standard_normal((64, 3, 3, 64)).astype(np.float32)
        b = rng.standard_normal(64).astype(np.float32)
        assert layers._fused_taps(128, 8, 64, 64, 3)
        fused = _conv(x, w, b)[0].tobytes()
        monkeypatch.setattr(layers, "_BLAS", None)
        monkeypatch.setattr(layers, "_GemmAdd", None)  # a call would raise
        assert not layers._fused_taps(128, 8, 64, 64, 3)
        assert _conv(x, w, b)[0].tobytes() == fused

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gemm_add_adds_a_product_into_a_run_of_rows(self, dtype, rng):
        a = rng.standard_normal((10, 6)).astype(dtype)
        taps = rng.standard_normal((4, 3, 3, 6)).astype(dtype).transpose(1, 2, 3, 0)
        for b in (taps[0, 1], np.ascontiguousarray(taps[0, 1])):  # passed transposed, then not
            out = rng.standard_normal((12, 4)).astype(dtype)
            want = out.copy()
            want[5:9] += a[2:6] @ b
            layers._GemmAdd(a, b, out)(2, 5, 4)
            assert_matches_reference(out, want, dtype)

    def test_gemm_add_refuses_what_blas_cannot_read(self, rng):
        a, b, out = rng.standard_normal((10, 6)), rng.standard_normal((6, 4)), np.zeros((12, 4))
        for bad in [(a.astype(np.float32), b, out), (a[:, ::2], b[:3], out), (a, b[:, ::-1], out),
                    (a, b, out[:, :3]), (a, b.astype(np.float32), out), (a, b, out[:, ::2])]:
            with pytest.raises(ShapeError):
                layers._GemmAdd(*bad)
        gemm = layers._GemmAdd(a, b, out)
        for rows in [(7, 0, 4), (0, 9, 4), (-1, 0, 2), (0, 0, 0)]:
            with pytest.raises(ShapeError):
                gemm(*rows)
