"""Network tests: parameter counts, residual identity, gradients, checkpoint I/O."""

import copy
import hashlib
import itertools
import os
import pickle
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambcest import (
    Adam,
    DenoiserHyper,
    FormatError,
    ParameterError,
    ResidualDenoiser,
    ShapeError,
    StateError,
    SystemConfig,
    TrainOptions,
    build_model,
    generate_dataset,
    grad_check,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    train,
)
from ambcest.cli import main
from ambcest.layers import Conv2D
from ambcest.model import PREDICT_CHUNK, _fold
from conftest import set_model_to_ls

TINY = DenoiserHyper(blocks=1, layers_per_block=3, filters=4, ma=4, mb=4, pilots=2)
C7 = DenoiserHyper(blocks=2, layers_per_block=4, filters=16, ma=8, mb=8, pilots=2)  # acceptance criterion 7

# predict computes in float32: its largest deviation from the float64 eval forward must stay
# within this share of the largest output entry (about 1e-6 is typical)
PREDICT_RTOL = 1e-5

# one seeded float32 train step of the criterion-7 net; prints a hash per output array
# one float32 criterion-7 train step, then a float32 predict of the default net: its
# 64-channel convs take the spatial-major taps and its 2 -> 64 convs the im2col GEMM
BLAS_PROBE = """
import hashlib
import numpy as np
from ambcest import DenoiserHyper, build_model, mse_loss
hyper = DenoiserHyper(blocks=2, layers_per_block=4, filters=16, ma=8, mb=8, pilots=2)
model = build_model(hyper, rng=0).train_mode()
rng = np.random.default_rng(11)
pred = model.forward(rng.standard_normal((128, 8, 8, 2)).astype(np.float32))
_, grad = mse_loss(pred, rng.standard_normal(pred.shape).astype(np.float32))
arrays = {"pred": pred, "input": model.backward(grad / 128), **model.named_gradients()}
default = build_model(DenoiserHyper(), rng=0).eval_mode()
arrays["default_predict"] = default.predict(rng.standard_normal((256, 8, 8, 2)).astype(np.float32))
for name, a in arrays.items():
    print(name, hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
"""


def assert_predict_close(got, ref):
    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert err <= PREDICT_RTOL, f"predict deviates by {err:.3g} of max |ref|"


def seed_batch_norms(model, rng, n=8):
    """Random gamma/beta, and running stats moved away from (0, 1) by train-mode forwards."""
    hp = model.hyper
    model.train_mode()
    for block in model.blocks:
        for bn in block.bns:
            bn.gamma[...] = rng.uniform(0.5, 2.0, bn.channels)
            bn.beta[...] = rng.standard_normal(bn.channels)
    for _ in range(3):
        model.forward(2.0 * rng.standard_normal((n, hp.ma, hp.mb, hp.pilots)) + 1.0)
    return model.eval_mode()


class TestHyper:
    def test_defaults_match_reference_realization(self):
        hp = DenoiserHyper()
        assert (hp.blocks, hp.layers_per_block, hp.filters) == (3, 8, 64)
        assert (hp.ma, hp.mb, hp.pilots, hp.kernel_size) == (8, 8, 2, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"blocks": 0},
            {"layers_per_block": 1},
            {"filters": 0},
            {"kernel_size": 2},
            {"recon": "mlp"},
            {"pilots": 0},
        ],
    )
    def test_invalid_hyper_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            DenoiserHyper(**kwargs)


class TestParameterCounts:
    def test_default_network_count(self):
        # per block: conv P->64 (9*2*64+64) + 6x (conv 64->64 + BN) + conv 64->P,
        # three blocks, plus the 1x1 reconstruction over P slices
        assert build_model(DenoiserHyper(), rng=0).num_parameters() == 674_505

    def test_tiny_network_count(self):
        assert build_model(TINY, rng=0).num_parameters() == 317

    def test_count_by_hand_formula(self):
        hp = DenoiserHyper(blocks=2, layers_per_block=4, filters=8, ma=4, mb=4, pilots=3)
        k2 = hp.kernel_size**2
        per_block = (
            (k2 * hp.pilots * hp.filters + hp.filters)      # entry conv
            + 2 * (k2 * hp.filters**2 + hp.filters)         # middle convs
            + 3 * 2 * hp.filters                            # BN gamma/beta per hidden layer
            + (k2 * hp.filters * hp.pilots + hp.pilots)     # exit conv
        )
        want = hp.blocks * per_block + (hp.pilots + 1)      # + 1x1 recon
        assert build_model(hp, rng=0).num_parameters() == want

    def test_dense_recon_count(self):
        hp = DenoiserHyper(blocks=1, layers_per_block=2, filters=2, ma=2, mb=2, pilots=2, recon="dense")
        vol = 2 * 2 * 2
        base = build_model(hp, rng=0).num_parameters()
        conv_part = (9 * 2 * 2 + 2) + (9 * 2 * 2 + 2) + 2 * 2  # two convs + one BN pair
        assert base == conv_part + vol * 4 + 4  # dense recon: (M x vol) weights + M biases

    @pytest.mark.parametrize("recon", ["conv1x1", "dense"])
    def test_closed_form_state_size_matches_a_built_model(self, recon):
        for b, l, f, k, p, (ma, mb) in itertools.product(
            (1, 2), (2, 3, 5), (1, 4), (1, 3), (1, 3), ((2, 3), (4, 4))
        ):
            hp = DenoiserHyper(blocks=b, layers_per_block=l, filters=f, ma=ma, mb=mb, pilots=p,
                               kernel_size=k, recon=recon)
            state = build_model(hp, rng=0).state_dict()
            assert hp.state_size == sum(arr.size for arr in state.values()), hp


class TestForward:
    def test_requires_mode(self, rng):
        model = build_model(TINY, rng=0)
        with pytest.raises(StateError):
            model.forward(rng.standard_normal((1, 4, 4, 2)))

    def test_shapes_batch_and_single(self, rng):
        # a single example is a batch of one
        model = build_model(TINY, rng=0).eval_mode()
        assert model.forward(rng.standard_normal((5, 4, 4, 2))).shape == (5, 4, 4)
        assert model.forward(rng.standard_normal((1, 4, 4, 2))).shape == (1, 4, 4)

    @pytest.mark.parametrize("recon", ["conv1x1", "dense"])
    def test_single_example_rejected(self, recon, rng):
        # the model takes batches only, like its layers and predict
        hp = DenoiserHyper(blocks=1, layers_per_block=2, filters=2, ma=4, mb=4, pilots=2, recon=recon)
        model = build_model(hp, rng=0).eval_mode()
        with pytest.raises(ShapeError):
            model.forward(rng.standard_normal((4, 4, 2)))
        model.forward(rng.standard_normal((3, 4, 4, 2)))
        with pytest.raises(ShapeError):
            model.backward(rng.standard_normal((4, 4)))

    def test_geometry_mismatch_rejected(self, rng):
        model = build_model(TINY, rng=0).eval_mode()
        with pytest.raises(ShapeError):
            model.forward(rng.standard_normal((5, 4, 4, 3)))

    def test_predict_runs_the_forward_in_chunks(self, rng, monkeypatch):
        model = build_model(TINY, rng=0).eval_mode()
        y = rng.standard_normal((PREDICT_CHUNK * 2 + 3, 4, 4, 2))
        want = model.forward(y)
        sizes = []
        forward = Conv2D.forward
        monkeypatch.setattr(Conv2D, "forward", lambda conv, x: sizes.append(len(x)) or forward(conv, x))
        assert_predict_close(model.predict(y), want)
        convs = TINY.blocks * TINY.layers_per_block + 1  # the blocks' convs, then the 1x1 reconstruction
        assert sizes == [n for n in (PREDICT_CHUNK, PREDICT_CHUNK, 3) for _ in range(convs)]

    @pytest.mark.parametrize("analysis", [False, True])
    @pytest.mark.parametrize("recon", ["conv1x1", "dense"])
    def test_folded_predict_matches_eval_forward(self, recon, analysis, rng):
        hp = DenoiserHyper(blocks=2, layers_per_block=3, filters=4, ma=4, mb=4, pilots=2, recon=recon)
        model = seed_batch_norms(build_model(hp, rng=5), rng)
        model.analysis = analysis
        y = rng.standard_normal((37, 4, 4, 2))
        assert_predict_close(model.predict(y), model.forward(y))

    @pytest.mark.parametrize("analysis", [False, True])
    def test_fold_matches_conv_then_eval_batch_norm(self, analysis, rng):
        # the fold algebra in float64, stage by stage: folded conv == eval bn(conv(x)), or
        # conv(x) where a stage has no bn (the last one, and all of them in analysis mode)
        model = seed_batch_norms(build_model(C7, rng=1), rng)
        model.analysis = analysis
        x = rng.standard_normal((5, 8, 8, 2))
        for block in model.blocks:
            for conv, bn, _ in block.stages():
                want = conv.forward(x) if bn is None else bn.forward(conv.forward(x))
                got = _fold(conv, bn).forward(x)
                assert got.dtype == np.float64
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                x = rng.standard_normal(want.shape)

    def test_predict_of_a_briefly_trained_net_matches_eval_forward(self):
        ds = generate_dataset(SystemConfig(), "direct", 640, seed=3)
        model, _ = train(build_model(C7, rng=0), ds, TrainOptions(max_epochs=1, patience=1))
        assert_predict_close(model.predict(ds.y[:300]), model.forward(ds.y[:300]))

    def test_predict_of_the_default_net_matches_eval_forward(self, rng):
        model = seed_batch_norms(build_model(DenoiserHyper(), rng=0), rng, n=4)
        y = rng.standard_normal((16, 8, 8, 2))
        assert_predict_close(model.predict(y), model.forward(y))

    def test_predict_leaves_the_backward_caches_alone(self, rng):
        model = build_model(TINY, rng=2).train_mode()
        model.forward(rng.standard_normal((8, 4, 4, 2)))
        model.eval_mode()
        y = rng.standard_normal((4, 4, 4, 2))
        g = rng.standard_normal((4, 4, 4))
        model.forward(y)
        want_in = model.backward(g)
        want = {k: v.copy() for k, v in model.named_gradients().items()}
        model.forward(y)
        model.predict(rng.standard_normal((9, 4, 4, 2)))
        assert np.array_equal(model.backward(g), want_in)
        got = model.named_gradients()
        assert all(np.array_equal(got[k], want[k]) for k in want)

    def test_predict_memory_is_bounded(self):
        # predict keeps no caches (about 50 MiB); forward with its caches peaks near 390 MiB here
        model = build_model(DenoiserHyper(), rng=0).eval_mode()
        y = np.random.default_rng(0).standard_normal((PREDICT_CHUNK, 8, 8, 2))
        tracemalloc.start()
        try:
            model.predict(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20

    def test_predict_requires_eval_mode_and_a_batch(self, rng):
        model = build_model(TINY, rng=0).train_mode()
        with pytest.raises(StateError):
            model.predict(rng.standard_normal((5, 4, 4, 2)))
        with pytest.raises(ShapeError):
            model.eval_mode().predict(rng.standard_normal((4, 4, 2)))

    def test_residual_identity_with_zero_subnet(self, rng):
        # zeroing each block's final conv makes S = 0, so the block output == input bitwise
        model = build_model(TINY, rng=0).eval_mode()
        for block in model.blocks:
            block.layers[-1][0].w[...] = 0.0
            block.layers[-1][0].b[...] = 0.0
        y = rng.standard_normal((3, 4, 4, 2))
        out, s = model.blocks[0].forward(y)
        assert np.all(s == 0.0)
        assert np.array_equal(out, y)

    def test_ls_configuration_matches_pilot_mean(self, rng):
        model = set_model_to_ls(build_model(TINY, rng=0)).eval_mode()
        y = rng.standard_normal((6, 4, 4, 2))
        assert np.allclose(model.forward(y), y.mean(axis=-1), atol=1e-12)

    def test_conv1x1_head_reshapes_are_views(self, rng):
        # the reshapes into and out of the head's grid copy nothing for the conv1x1 head
        model = build_model(TINY, rng=0).train_mode()
        head, seen = model.recon, []
        run_forward, run_backward = head.forward, head.backward

        def forward(x):
            seen.extend([x, run_forward(x)])
            return seen[-1]

        def backward(g):
            seen.extend([g, run_backward(g)])
            return seen[-1]

        head.forward, head.backward = forward, backward
        y, g = rng.standard_normal((3, 4, 4, 2)), rng.standard_normal((3, 4, 4))
        model.forward(y)  # the blocks' caches, for backward
        seen.clear()
        out = model._recon_forward(y, head)
        model.backward(g)
        head_in, head_out, grad_out, _ = seen
        assert np.shares_memory(head_in, y) and np.shares_memory(out, head_out)
        assert np.shares_memory(grad_out, g)

    def test_dense_recon_forward_shape(self, rng):
        hp = DenoiserHyper(blocks=1, layers_per_block=2, filters=2, ma=3, mb=2, pilots=2, recon="dense")
        model = build_model(hp, rng=0).eval_mode()
        assert model.forward(rng.standard_normal((4, 3, 2, 2))).shape == (4, 3, 2)

    def test_deterministic_build(self, rng):
        a = build_model(TINY, rng=7).eval_mode()
        b = build_model(TINY, rng=7).eval_mode()
        y = rng.standard_normal((2, 4, 4, 2))
        assert np.array_equal(a.forward(y), b.forward(y))

    def test_build_needs_a_seed(self):
        with pytest.raises(ParameterError, match="rng"):
            build_model(TINY, rng=None)
        with pytest.raises(TypeError):
            build_model(TINY)

    def test_analysis_mode_is_linear(self, rng):
        model = build_model(TINY, rng=1).eval_mode()
        model.analysis = True
        y1 = rng.standard_normal((1, 4, 4, 2))
        y2 = rng.standard_normal((1, 4, 4, 2))
        lhs = model.forward(y1 + y2) - model.forward(np.zeros_like(y1))
        rhs = (model.forward(y1) - model.forward(np.zeros_like(y1))) + (
            model.forward(y2) - model.forward(np.zeros_like(y2))
        )
        assert np.allclose(lhs, rhs, atol=1e-10)
        model.analysis = False
        assert not np.allclose(
            model.forward(y1 + y2), model.forward(y1) + model.forward(y2) - model.forward(np.zeros_like(y1)), atol=1e-10
        )


class TestAnalysisMode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("recon", ["conv1x1", "dense"])
    def test_blocks_are_their_convs_alone(self, recon, dtype, rng):
        # moved running stats, random gamma/beta and the BN gradients of a normal-mode
        # backward before the switch: analysis mode ignores the first two, zeroes the third
        hp = DenoiserHyper(blocks=2, layers_per_block=3, filters=4, ma=4, mb=4, pilots=2, recon=recon)
        model = seed_batch_norms(build_model(hp, rng=5), rng).train_mode()
        model.forward(rng.standard_normal((6, 4, 4, 2)))
        model.backward(rng.standard_normal((6, 4, 4)))
        bns = [bn for block in model.blocks for bn in block.bns]
        assert all(np.any(bn.grad_gamma != 0.0) and np.any(bn.grad_beta != 0.0) for bn in bns)
        stats = {k: v.copy() for k, v in model.named_running_stats().items()}
        ref = model.clone()
        model.analysis = True
        assert model.analysis
        y = rng.standard_normal((5, 4, 4, 2)).astype(dtype)
        g = rng.standard_normal((5, 4, 4)).astype(dtype)
        out = model.forward(y)  # train mode: a batch norm that ran would move its stats
        grad_in = model.backward(g)

        # the conv-only residual chain, by hand, on the clone's layers
        h = y
        for block in ref.blocks:
            s = h
            for conv, _, _ in block.layers:
                s = conv.forward(s)
            h = h - s
        want = ref._recon_forward(h, ref.recon)
        (hh, ww, _), c_out = hp.head
        gh = ref.recon.backward(g.reshape(5, hh, ww, c_out)).reshape(5, 4, 4, 2)
        for block in reversed(ref.blocks):
            gs = -gh
            for conv, _, _ in reversed(block.layers):
                gs = conv.backward(gs)
            gh = gh + gs
        assert out.dtype == dtype and np.array_equal(out, want)
        assert grad_in.dtype == dtype and np.array_equal(grad_in, gh)
        got, ref_grads = model.named_gradients(), ref.named_gradients()
        for name, grad in got.items():
            if ".bn" in name:
                assert np.all(grad == 0.0), name
            else:
                assert np.array_equal(grad, ref_grads[name]), name
        assert all(np.array_equal(v, stats[k]) for k, v in model.named_running_stats().items())


class TestComputeDtype:
    @pytest.mark.parametrize("analysis", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("recon", ["conv1x1", "dense"])
    def test_forward_and_backward_follow_the_input(self, recon, dtype, analysis, rng):
        hp = DenoiserHyper(blocks=1, layers_per_block=3, filters=4, ma=4, mb=4, pilots=2, recon=recon)
        model = build_model(hp, rng=0).train_mode()
        model.analysis = analysis
        y = rng.standard_normal((3, 4, 4, 2)).astype(dtype)
        out = model.forward(y)
        assert out.dtype == dtype
        assert model.backward(np.ones_like(out)).dtype == dtype
        arrays = {**model.named_parameters(), **model.named_gradients(), **model.named_running_stats()}
        assert all(a.dtype == np.float64 for a in arrays.values())

    def test_predict_runs_the_residual_branches_in_float32(self, rng, monkeypatch):
        # the folded convs see float32; the skip path and the reconstruction keep float64
        model = build_model(TINY, rng=0).eval_mode()
        seen = []
        forward = Conv2D.forward
        monkeypatch.setattr(Conv2D, "forward", lambda conv, x: seen.append((x.dtype, conv.w.dtype)) or forward(conv, x))
        model.predict(rng.standard_normal((3, 4, 4, 2)))
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert seen == [(f32, f32)] * (TINY.blocks * TINY.layers_per_block) + [(f64, f64)]

    def test_predict_returns_float64(self, rng):
        model = build_model(TINY, rng=0).eval_mode()
        for dtype in (np.float32, np.float64):
            assert model.predict(rng.standard_normal((3, 4, 4, 2)).astype(dtype)).dtype == np.float64

    def test_float32_gradients_match_float64(self, rng):
        # one train-mode forward + backward of the criterion-7 net; each gradient must stay
        # within 1e-4 of its largest float64 entry.  A conv bias feeding a train-mode batch
        # norm has an exactly zero gradient, so it is held to 1e-4 of the largest gradient.
        ds = generate_dataset(SystemConfig(), "direct", 64, seed=1)
        model = seed_batch_norms(build_model(C7, rng=0), rng)
        grads = {}
        for dtype in (np.float64, np.float32):
            twin = model.clone().train_mode()
            _, g = mse_loss(twin.forward(ds.y.astype(dtype)), ds.x.astype(dtype))
            grads[dtype] = {"input": twin.backward(g / len(ds)), **twin.named_gradients()}
        g64, g32 = grads[np.float64], grads[np.float32]
        largest = max(np.max(np.abs(g)) for name, g in g64.items() if name != "input")
        feeds_bn = {f"block{b}.conv{i}.b" for b in range(C7.blocks) for i in range(1, C7.layers_per_block)}
        for name, g in g64.items():
            scale = largest if name in feeds_bn else np.max(np.abs(g))
            err = np.max(np.abs(g32[name] - g))
            assert err <= 1e-4 * scale, f"{name}: {err:.3g} vs scale {scale:.3g}"

    def test_float32_train_step_is_independent_of_the_blas_thread_count(self):
        # BLAS fixes its thread count when it loads, so each count gets its own process
        src = str(Path(__file__).resolve().parents[1] / "src")
        hashes = []
        for threads in ("1", "2"):
            blas = {v: threads for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env={**os.environ, "PYTHONPATH": src, **blas},
                                  capture_output=True, text=True, timeout=120, check=True)
            hashes.append(proc.stdout.splitlines())
        assert len(hashes[0]) == 3 + len(build_model(C7, rng=0).named_gradients())
        assert hashes[0] == hashes[1]


class TestBackward:
    @pytest.mark.parametrize("recon", ["conv1x1", "dense"])
    def test_full_model_gradients(self, recon, rng):
        hp = DenoiserHyper(blocks=1, layers_per_block=3, filters=4, ma=4, mb=4, pilots=2, recon=recon)
        model = build_model(hp, rng=3).train_mode()
        model.forward(rng.standard_normal((8, 4, 4, 2)))  # seed running stats
        model.eval_mode()
        y = rng.standard_normal((4, 4, 4, 2))
        target = rng.standard_normal((4, 4, 4))

        def loss_fn():
            loss, _ = mse_loss(model.forward(y), target)
            return loss

        _, grad = mse_loss(model.forward(y), target)
        model.backward(grad)
        report = grad_check(loss_fn, model.named_parameters(), model.named_gradients())
        assert report.passed, str(report)

    def test_gradients_across_twenty_seeds(self, rng):
        worst = 0.0
        for seed in range(20):
            model = build_model(TINY, rng=seed).train_mode()
            model.forward(rng.standard_normal((8, 4, 4, 2)))
            model.eval_mode()
            y = rng.standard_normal((2, 4, 4, 2))
            target = rng.standard_normal((2, 4, 4))

            def loss_fn():
                loss, _ = mse_loss(model.forward(y), target)
                return loss

            _, grad = mse_loss(model.forward(y), target)
            model.backward(grad)
            report = grad_check(loss_fn, model.named_parameters(), model.named_gradients())
            assert report.passed, f"seed {seed}: {report}"
            worst = max(worst, report.max_rel_error)
        assert worst < 1e-4


class TestStateDict:
    def test_round_trip_is_bit_exact(self, rng):
        model = build_model(TINY, rng=5).train_mode()
        model.forward(rng.standard_normal((8, 4, 4, 2)))  # move running stats off init
        state = model.state_dict()
        other = ResidualDenoiser(TINY, np.concatenate([arr.ravel() for arr in state.values()]))
        for name, arr in model.named_parameters().items():
            assert np.array_equal(dict(other.named_parameters())[name], arr), name
        for name, arr in model.named_running_stats().items():
            assert np.array_equal(dict(other.named_running_stats())[name], arr), name

    def test_state_dict_is_a_copy(self):
        model = build_model(TINY, rng=0)
        state = model.state_dict()
        state["recon.b"][...] = 123.0
        assert model.named_parameters()["recon.b"][0] == 0.0

    def test_clone_is_independent(self, rng):
        model = build_model(TINY, rng=2).eval_mode()
        twin = model.clone()
        y = rng.standard_normal((2, 4, 4, 2))
        assert np.array_equal(model.forward(y), twin.forward(y))
        twin.recon.b[...] = 50.0
        assert model.recon.b[0] != 50.0


C7_PARAMETER_NAMES = [
    f"block{b}.{name}"
    for b in range(2)
    for layer in range(1, 5)
    for name in ([f"conv{layer}.w", f"conv{layer}.b"]
                 + ([f"bn{layer}.gamma", f"bn{layer}.beta"] if layer < 4 else []))
] + ["recon.w", "recon.b"]
C7_RUNNING_STAT_NAMES = [
    f"block{b}.bn{layer}.{stat}" for b in range(2) for layer in range(1, 4)
    for stat in ("running_mean", "running_var")
]

# tests/data/layout_b6dac2d.ckpt: a LAYOUT net holding layout_state(), written by
# save_checkpoint at commit b6dac2d
LAYOUT = DenoiserHyper(blocks=2, layers_per_block=3, filters=3, ma=4, mb=4, pilots=2)
LAYOUT_CKPT = Path(__file__).parent / "data" / "layout_b6dac2d.ckpt"
# tests/data/layout_dense_ea677d8.ckpt: a LAYOUT_DENSE net holding layout_state(), written
# by save_checkpoint at commit ea677d8, when the dense head was a layer of its own; the
# sha256 of its eval-mode float64 forward of default_rng(2025).standard_normal((4, 3, 2, 2))
# at that commit
LAYOUT_DENSE = DenoiserHyper(blocks=1, layers_per_block=2, filters=3, ma=3, mb=2, pilots=2, recon="dense")
LAYOUT_DENSE_CKPT = Path(__file__).parent / "data" / "layout_dense_ea677d8.ckpt"
LAYOUT_DENSE_FORWARD_SHA256 = "9e8f7a834a8b7f64ca755e7de6fd8671af21ec51107f0e96feac73176cc60201"


def layout_state(model) -> dict:
    """Distinct values for every state entry, drawn in state_dict order (variances > 0)."""
    rng = np.random.default_rng(2024)
    state = {}
    for name, arr in model.state_dict().items():
        draw = rng.standard_normal(arr.shape)
        state[name] = np.abs(draw) + 0.5 if name.endswith("running_var") else draw
    return state


class TestStateLayout:
    """Names and order of the named state define the .ckpt layout; neither may move."""

    def test_criterion_7_names_and_order(self):
        model = build_model(C7, rng=0)
        assert list(model.named_parameters()) == C7_PARAMETER_NAMES
        assert list(model.named_gradients()) == C7_PARAMETER_NAMES
        assert list(model.named_running_stats()) == C7_RUNNING_STAT_NAMES
        assert list(model.state_dict()) == C7_PARAMETER_NAMES + C7_RUNNING_STAT_NAMES

    def test_named_state_entries_are_the_live_arrays(self):
        model = build_model(C7, rng=0)
        block = model.blocks[1]
        assert model.named_parameters()["block1.conv4.w"] is block.layers[3][0].w
        assert model.named_parameters()["block1.bn2.gamma"] is block.bns[1].gamma
        assert model.named_running_stats()["block1.bn3.running_var"] is block.bns[2].running_var
        model.train_mode().forward(np.ones((2, 8, 8, 2)))
        model.backward(np.ones((2, 8, 8)))
        assert model.named_gradients()["block1.bn2.gamma"] is block.bns[1].grad_gamma
        assert model.named_gradients()["recon.b"] is model.recon.grad_b

    def test_checkpoint_written_at_b6dac2d_loads_bit_exact(self, tmp_path):
        loaded = load_checkpoint(LAYOUT_CKPT)
        assert loaded.hyper == LAYOUT
        want = layout_state(build_model(LAYOUT, rng=0))
        state = loaded.state_dict()
        assert list(state) == list(want)
        for name, arr in want.items():
            assert np.array_equal(state[name], arr), name
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == LAYOUT_CKPT.read_bytes()

    def test_dense_head_file_loads_and_resaves_to_the_same_bytes(self, tmp_path):
        # the dense head's weight is read as a 1x1 conv's on a 1x1 grid: the same bytes,
        # and the same float64 forward as the full affine map that wrote them
        loaded = load_checkpoint(LAYOUT_DENSE_CKPT)
        assert loaded.hyper == LAYOUT_DENSE
        want, state = layout_state(build_model(LAYOUT_DENSE, rng=0)), loaded.state_dict()
        assert list(state) == list(want)
        assert all(np.array_equal(state[name], arr) for name, arr in want.items())
        assert loaded.recon.w.shape == (6, 1, 1, 12)
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == LAYOUT_DENSE_CKPT.read_bytes()
        out = loaded.eval_mode().forward(np.random.default_rng(2025).standard_normal((4, 3, 2, 2)))
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert hashlib.sha256(out.tobytes()).hexdigest() == LAYOUT_DENSE_FORWARD_SHA256


def traced_after(make):
    """(the object make() returns, the bytes tracemalloc still counts once it has returned)."""
    tracemalloc.start()
    try:
        made = make()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return made, held


class TestResidentMemory:
    """A model holds its parameters and running statistics and no gradient until a backward."""

    # layer objects, lists and dicts: about 34 KiB at the default shape
    SLACK = 2**18

    @pytest.mark.parametrize("recon", ["conv1x1", "dense"])
    def test_built_and_loaded_models_hold_only_their_state(self, recon, tmp_path):
        # the default net's state is 5.17 MiB; with build-time gradient buffers a model held 10.36
        hyper = DenoiserHyper(recon=recon)
        model, held = traced_after(lambda: build_model(hyper, rng=0))
        assert held <= hyper.state_size * 8 + self.SLACK
        save_checkpoint(model, tmp_path / "model.ckpt")
        del model
        _, held = traced_after(lambda: load_checkpoint(tmp_path / "model.ckpt"))
        assert held <= hyper.state_size * 8 + self.SLACK

    def test_loading_peaks_at_one_copy_of_the_state(self, tmp_path):
        # the file is read into one buffer and the net's views are built onto its payload;
        # a load that built a zero model and copied the payload in peaked at twice the state
        hyper = DenoiserHyper()
        save_checkpoint(build_model(hyper, rng=0), tmp_path / "model.ckpt")
        tracemalloc.start()
        try:
            load_checkpoint(tmp_path / "model.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= hyper.state_size * 8 + self.SLACK

    def test_gradients_read_zero_before_any_backward(self):
        model = build_model(C7, rng=0)
        params, grads = model.named_parameters(), model.named_gradients()
        assert list(grads) == C7_PARAMETER_NAMES
        for name, grad in grads.items():
            assert grad.shape == params[name].shape and grad.dtype == np.float64, name
            assert not np.any(grad), name
        assert model.named_gradients()["recon.w"] is not grads["recon.w"]  # fresh zeros, not stored

    def test_analysis_mode_resets_the_batch_norm_gradients(self):
        # the gradients are views of the net's one vector, so the switch zeroes them in place
        model = build_model(C7, rng=0).train_mode()
        model.forward(np.random.default_rng(0).standard_normal((2, 8, 8, 2)))
        model.backward(np.ones((2, 8, 8)))
        is_bn = [".bn" in name for name in model.named_gradients()]
        assert any(np.any(g) for g, bn in zip(model.named_gradients().values(), is_bn) if bn)
        model.analysis = True
        grads = model.named_gradients()
        assert all(not np.any(g) for g, bn in zip(grads.values(), is_bn) if bn)
        assert np.any(grads["recon.w"])  # a conv keeps its last gradient
        before = {name: p.copy() for name, p in model.named_parameters().items()}
        Adam(learning_rate=0.1).step({"net": model.state[: model.num_parameters()]}, {"net": model.grad})
        after = model.named_parameters()
        for name, bn in zip(before, is_bn):
            assert np.array_equal(after[name], before[name]) == bn, name


def offsets(named: dict) -> dict:
    """Each named array's offset, in floats, in a vector holding them in order."""
    out, at = {}, 0
    for name, arr in named.items():
        out[name], at = at, at + arr.size
    return out


def assert_views_at_offsets(named: dict, vector: np.ndarray, start: int = 0) -> None:
    base = vector.__array_interface__["data"][0]
    for (name, arr), at in zip(named.items(), offsets(named).values()):
        assert arr.base is not None and np.shares_memory(arr, vector), name
        assert arr.__array_interface__["data"][0] == base + 8 * (start + at), name
        assert arr.flags.c_contiguous and arr.dtype == np.float64, name


small_hypers = st.builds(
    DenoiserHyper, blocks=st.integers(1, 2), layers_per_block=st.integers(2, 3),
    filters=st.integers(1, 3), ma=st.integers(1, 3), mb=st.integers(1, 3),
    pilots=st.integers(1, 2), kernel_size=st.sampled_from([1, 3]),
    recon=st.sampled_from(["conv1x1", "dense"]))


class TestStateVector:
    """One float64 vector per net: its parameters, then its running statistics, is the
    checkpoint payload byte for byte; the gradients are one more vector."""

    @settings(max_examples=25)
    @given(hyper=small_hypers)
    def test_every_array_is_a_view_of_the_net_vectors(self, hyper):
        model = build_model(hyper, rng=1)
        params, stats = model.named_parameters(), model.named_running_stats()
        assert model.state.shape == (hyper.state_size,) and model.grad is None
        assert_views_at_offsets(params, model.state)
        assert_views_at_offsets(stats, model.state, model.num_parameters())
        rng = np.random.default_rng(0)
        model.train_mode().forward(rng.standard_normal((2, hyper.ma, hyper.mb, hyper.pilots)))
        model.backward(np.ones((2, hyper.ma, hyper.mb)))
        assert model.grad.shape == (model.num_parameters(),)
        assert_views_at_offsets(model.named_gradients(), model.grad)
        assert_views_at_offsets(model.named_parameters(), model.state)  # still, after the backward

    @settings(max_examples=25)
    @given(hyper=small_hypers)
    def test_checkpoint_is_header_vector_and_crc(self, hyper):
        model = build_model(hyper, rng=2).train_mode()
        model.forward(np.random.default_rng(0).standard_normal((3, hyper.ma, hyper.mb, hyper.pilots)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(model, path)
            raw = path.read_bytes()
            loaded = load_checkpoint(path)
        assert raw[40:-4] == model.state.tobytes()
        assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4])
        assert np.array_equal(loaded.state, model.state)
        assert_views_at_offsets(loaded.named_parameters(), loaded.state)
        assert_views_at_offsets(loaded.named_running_stats(), loaded.state, loaded.num_parameters())

    @settings(max_examples=15)
    @given(hyper=small_hypers, backward=st.booleans(), how=st.sampled_from(["clone", "deepcopy", "pickle"]))
    def test_a_copy_owns_its_vectors(self, hyper, backward, how):
        model = build_model(hyper, rng=3).train_mode()
        if backward:
            model.forward(np.ones((2, hyper.ma, hyper.mb, hyper.pilots)))
            model.backward(np.ones((2, hyper.ma, hyper.mb)))
        copies = {"clone": model.clone, "deepcopy": lambda: copy.deepcopy(model),
                  "pickle": lambda: pickle.loads(pickle.dumps(model))}
        twin = copies[how]()
        assert np.array_equal(twin.state, model.state) and not np.shares_memory(twin.state, model.state)
        assert_views_at_offsets(twin.named_parameters(), twin.state)
        assert_views_at_offsets(twin.named_running_stats(), twin.state, twin.num_parameters())
        if backward:
            assert np.array_equal(twin.grad, model.grad) and not np.shares_memory(twin.grad, model.grad)
            assert_views_at_offsets(twin.named_gradients(), twin.grad)
        else:
            assert twin.grad is None


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        model = build_model(TINY, rng=4).train_mode()
        model.forward(rng.standard_normal((8, 4, 4, 2)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.hyper == model.hyper
        for name, arr in model.named_parameters().items():
            assert np.array_equal(dict(loaded.named_parameters())[name], arr), name
        for name, arr in model.named_running_stats().items():
            assert np.array_equal(dict(loaded.named_running_stats())[name], arr), name
        y = rng.standard_normal((3, 4, 4, 2))
        assert np.array_equal(model.eval_mode().forward(y), loaded.eval_mode().forward(y))

    def test_dense_recon_round_trip(self, tmp_path, rng):
        hp = DenoiserHyper(blocks=1, layers_per_block=2, filters=2, ma=2, mb=2, pilots=2, recon="dense")
        model = build_model(hp, rng=1)
        path = tmp_path / "dense.ckpt"
        save_checkpoint(model, path)
        assert load_checkpoint(path).hyper == hp

    def test_bad_magic_rejected(self, tmp_path):
        model = build_model(TINY, rng=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        model = build_model(TINY, rng=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(TINY, rng=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("byte, bit", [(32, 0), (19, 7)])  # kernel_size low bit, filters high bit
    def test_flipped_header_bit_is_a_format_error(self, tmp_path, byte, bit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(TINY, rng=0), path)
        raw = bytearray(path.read_bytes())
        raw[byte] ^= 1 << bit
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(path)

    def test_invalid_header_under_a_valid_crc_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(TINY, rng=0), path)
        raw = bytearray(path.read_bytes())
        raw[32] = 2  # kernel_size must be odd
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="invalid header"):
            load_checkpoint(path)

    def test_header_claiming_a_large_net_is_refused_before_any_model_is_built(self, tmp_path, capsys):
        # 20 default-shape blocks under a valid CRC and an empty payload: building the net
        # before sizing the payload would allocate about 69 MiB
        header = struct.pack("<4sI8I", b"CRLD", 1, 20, 8, 64, 8, 8, 2, 3, 0)
        path = tmp_path / "big.ckpt"
        path.write_bytes(header + struct.pack("<I", zlib.crc32(header)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="expected"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert main(["eval", "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unsupported_version_rejected(self, tmp_path):
        model = build_model(TINY, rng=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # version field, little-endian low byte
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError):
            load_checkpoint(path)
