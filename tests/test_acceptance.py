"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to watch the lines as they appear
(pytest also shows them whenever a criterion fails).  Criteria 7-9 train small
networks from scratch, carry the `slow` marker and dominate the runtime: the whole
gate took about 130 s, most of it criterion 7, on a shared 2-vCPU host with
OpenBLAS 0.3.31.
"""

import time

import numpy as np
import pytest

from ambcest import (
    BatchNorm2D,
    Conv2D,
    CorrelationSpec,
    DenoiserHyper,
    ExperimentPlan,
    MmseContext,
    ReLU,
    SystemConfig,
    TrainOptions,
    brute_force_conditional_mean,
    build_correlation_matrix,
    build_model,
    complexity_report,
    evaluate,
    extract_effective_map,
    generate_dataset,
    grad_check,
    grad_check_input,
    load_checkpoint,
    ls_estimate,
    map_distance,
    mmse_estimate_matrix,
    mmse_estimate_vector,
    mmse_weight_target,
    mse_loss,
    nmse,
    run_sweep,
    save_checkpoint,
    simulate_batch,
    train,
)
from ambcest.channel import widen_pilots

from conftest import iid_config


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_01_ls_analytic_risk():
    # i.i.d. unit-variance channels at SNR -6 dB, P=2: LS risk is sigma_u^2/P
    t0 = time.perf_counter()
    cfg = iid_config(m=64, ma=8, mb=8, snr_db=-6.0)
    y, x = simulate_batch(cfg, "direct", 10_000, np.random.default_rng(1))
    score = nmse(x.reshape(10_000, -1), ls_estimate(y))
    want = 10.0**0.6 / 2.0
    elapsed = time.perf_counter() - t0
    ok = abs(score.value - want) / want < 0.05 and elapsed < 5.0
    _report(
        1, ok,
        f"LS nmse {score.value:.4f} vs analytic {want:.4f} "
        f"(rel err {abs(score.value - want) / want:.3%}, {elapsed:.1f}s)",
    )


def test_02_mmse_scalar_oracle():
    # i.i.d. prior, P=2, sigma_u^2=1: Gaussian conditioning gives risk 1/3
    cfg = iid_config(m=64, ma=8, mb=8, snr_db=0.0)
    assert cfg.sigma_u_sq == 1.0
    y, x = simulate_batch(cfg, "direct", 10_000, np.random.default_rng(2))
    est = mmse_estimate_vector(ls_estimate(y), np.eye(64), 1.0, 2)
    score = nmse(x.reshape(10_000, -1), est)
    want = 1.0 / 3.0
    ok = abs(score.value - want) / want < 0.03
    _report(
        2, ok,
        f"MMSE nmse {score.value:.4f} vs 1/3 "
        f"(rel err {abs(score.value - want) / want:.3%})",
    )


def test_03_vector_mmse_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        p = int(rng.integers(1, 5))
        rho = float(rng.uniform(0.0, 0.95))
        R = build_correlation_matrix(CorrelationSpec("exponential", rho), m)
        sigma = float(rng.uniform(0.2, 3.0))
        y = rng.standard_normal((p, m))
        want = brute_force_conditional_mean(y, R, sigma)
        got = mmse_estimate_vector(y.mean(axis=0), R, sigma, p)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(3, ok, f"50 instances, worst |diff| {worst:.2e} ({elapsed:.1f}s)")


def test_04_matrix_mmse_matches_brute_force():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        C = a @ a.T + 0.5 * np.eye(2)
        sigma = float(rng.uniform(0.3, 2.0))
        ctx = MmseContext.from_column_cov(C, sigma, 2, 2)
        R = np.kron(np.eye(2), C)  # row-i.i.d., column-correlated prior
        y = rng.standard_normal((2, 4))
        want = brute_force_conditional_mean(y, R, sigma).reshape(2, 2)
        got = mmse_estimate_matrix(widen_pilots(np.moveaxis(y.reshape(2, 2, 2), 0, -1)), ctx)
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst < 1e-8
    _report(4, ok, f"20 row-i.i.d. instances at Ma=Mb=2, P=2, worst |diff| {worst:.2e}")


def _sum_squares_after(layer, x):
    def loss_fn():
        out = layer.forward(x)
        return float(np.sum(out * out))

    return loss_fn


def _layer_reports(seed):
    """Parameter and input gradient checks for every layer type, one seed."""
    rng = np.random.default_rng(seed)
    reports = []

    conv = Conv2D(2, 3).reset(rng)
    x = rng.standard_normal((2, 4, 4, 2))
    out = conv.forward(x)
    grad_in = conv.backward(2.0 * out)
    reports.append(grad_check(_sum_squares_after(conv, x), conv.named_parameters("c"), conv.named_gradients("c")))
    reports.append(grad_check_input(_sum_squares_after(conv, x), x, grad_in))

    # the dense reconstruction head's operation: a 1x1 conv on a 1x1 grid
    dense = Conv2D(6, 4, kernel_size=1).reset(rng)
    x = rng.standard_normal((3, 1, 1, 6))
    out = dense.forward(x)
    grad_in = dense.backward(2.0 * out)
    reports.append(grad_check(_sum_squares_after(dense, x), dense.named_parameters("d"), dense.named_gradients("d")))
    reports.append(grad_check_input(_sum_squares_after(dense, x), x, grad_in))

    for mode in ("train", "eval"):
        bn = BatchNorm2D(2)
        bn.gamma[:] = rng.uniform(0.5, 1.5, 2)
        bn.beta[:] = rng.standard_normal(2)
        bn.forward(rng.standard_normal((4, 3, 3, 2)))  # seed running stats
        if mode == "eval":
            bn.mode = BatchNorm2D.EVAL
        x = rng.standard_normal((2, 3, 3, 2))
        out = bn.forward(x)
        grad_in = bn.backward(2.0 * out)
        reports.append(grad_check(_sum_squares_after(bn, x), bn.named_parameters("bn"), bn.named_gradients("bn")))
        reports.append(grad_check_input(_sum_squares_after(bn, x), x, grad_in))

    relu = ReLU()
    x = rng.standard_normal((2, 3, 3, 2))
    x += 0.2 * np.sign(x)  # keep finite differences away from the kink at zero
    out = relu.forward(x)
    grad_in = relu.backward(2.0 * out)
    reports.append(grad_check_input(_sum_squares_after(relu, x), x, grad_in))
    return reports


def test_05_gradient_suite():
    t0 = time.perf_counter()
    hyper = DenoiserHyper(blocks=1, layers_per_block=3, filters=4, ma=4, mb=4, pilots=2)
    worst = 0.0
    for seed in range(20):
        for report in _layer_reports(seed):
            assert report.passed, f"layer check, seed {seed}: {report}"
            worst = max(worst, report.max_rel_error)

        rng = np.random.default_rng(100 + seed)
        model = build_model(hyper, rng=seed).train_mode()
        model.forward(rng.standard_normal((8, 4, 4, 2)))  # seed running stats
        model.eval_mode()
        y = rng.standard_normal((2, 4, 4, 2))
        target = rng.standard_normal((2, 4, 4))

        def loss_fn():
            loss, _ = mse_loss(model.forward(y), target)
            return loss

        _, grad = mse_loss(model.forward(y), target)
        model.backward(grad)
        report = grad_check(loss_fn, model.named_parameters(), model.named_gradients())
        assert report.passed, f"full model, seed {seed}: {report}"
        worst = max(worst, report.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(5, ok, f"all layers + full model, 20 seeds, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_06_bit_level_properties(tmp_path):
    rng = np.random.default_rng(4)
    hyper = DenoiserHyper(blocks=2, layers_per_block=3, filters=4, ma=4, mb=4, pilots=2)

    # residual identity: a block whose final conv is zero passes its input through bitwise
    model = build_model(hyper, rng=0).eval_mode()
    for block in model.blocks:
        block.layers[-1][0].w[...] = 0.0
        block.layers[-1][0].b[...] = 0.0
    y = rng.standard_normal((3, 4, 4, 2))
    out, s = model.blocks[0].forward(y)
    residual_ok = bool(np.all(s == 0.0)) and np.array_equal(out, y)

    # checkpoint round trip restores every tensor and the forward pass bit-for-bit
    model = build_model(hyper, rng=9).train_mode()
    model.forward(rng.standard_normal((8, 4, 4, 2)))
    model.eval_mode()
    path = str(tmp_path / "round_trip.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path).eval_mode()
    params_ok = all(
        np.array_equal(loaded.named_parameters()[name], arr)
        for name, arr in model.named_parameters().items()
    )
    stats_ok = all(
        np.array_equal(loaded.named_running_stats()[name], arr)
        for name, arr in model.named_running_stats().items()
    )
    forward_ok = np.array_equal(model.forward(y), loaded.forward(y))

    ok = residual_ok and params_ok and stats_ok and forward_ok
    _report(
        6, ok,
        f"residual pass-through {'exact' if residual_ok else 'BROKEN'}, "
        f"checkpoint round trip {'exact' if params_ok and stats_ok and forward_ok else 'BROKEN'}",
    )


@pytest.mark.slow
def test_07_trained_denoiser_headline():
    # correlated channels (rho=0.9), M=64, SNR -6 dB, zeta -5 dB, P=2: the trained
    # network must land within 1 dB of the vector-MMSE risk and gain >= 2 dB over LS
    t0 = time.perf_counter()
    cfg = SystemConfig()
    ds = generate_dataset(cfg, "direct", 20_000, seed=42)
    hyper = DenoiserHyper(blocks=2, layers_per_block=4, filters=16, ma=8, mb=8, pilots=2)
    model = build_model(hyper, rng=0)
    opts = TrainOptions(batch_size=128, max_epochs=30, patience=6, seed=0)
    model, _ = train(model, ds, opts)
    crld = evaluate(model, cfg, "direct", 4_000, np.random.default_rng(123))

    y, x = simulate_batch(cfg, "direct", 10_000, np.random.default_rng(7))
    truth = x.reshape(10_000, -1)
    R = build_correlation_matrix(cfg.corr_h, cfg.m)
    ls_score = nmse(truth, ls_estimate(y))
    mmse_score = nmse(truth, mmse_estimate_vector(ls_estimate(y), R, cfg.sigma_u_sq, 2))

    crld_db, mmse_db, ls_db = crld.to_db(), mmse_score.to_db(), ls_score.to_db()
    elapsed = time.perf_counter() - t0
    ok = crld_db <= mmse_db + 1.0 and ls_db - crld_db >= 2.0 and elapsed < 1800.0
    _report(
        7, ok,
        f"CRLD {crld_db:+.2f} dB vs MMSE {mmse_db:+.2f} dB (gap {crld_db - mmse_db:.2f} <= 1) "
        f"and LS {ls_db:+.2f} dB (gain {ls_db - crld_db:.2f} >= 2), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_08_pilot_sweep_trend(tmp_path):
    # every estimator must improve from P=2 to P=16 by more than 3 CI half-widths
    plan = ExperimentPlan(
        axis="pilots", values=(2, 16), methods=("ls", "mmse", "crld"),
        links=("direct",), trials=4_000,
    )
    hyper = DenoiserHyper(blocks=1, layers_per_block=3, filters=8, ma=8, mb=8, pilots=2)
    opts = TrainOptions(batch_size=128, max_epochs=10, patience=3, seed=0)
    report = run_sweep(
        plan, SystemConfig(), seed=7, checkpoint_dir=str(tmp_path),
        train_missing=True, hyper=hyper, train_opts=opts, train_k=6_000,
    )
    by = {(r.method, r.p): r for r in report.rows}
    margins = {}
    for method in plan.methods:
        lo, hi = by[(method, 2)], by[(method, 16)]
        margins[method] = lo.nmse - hi.nmse - 3.0 * max(lo.ci_half_width, hi.ci_half_width)
    ok = all(m > 0.0 for m in margins.values())
    detail = ", ".join(f"{k} drop margin {v:+.3f}" for k, v in margins.items())
    _report(8, ok, f"P=2 -> P=16 at SNR -6 dB: {detail}")


@pytest.mark.slow
def test_09_linear_mode_reaches_the_mmse_map():
    t0 = time.perf_counter()
    cfg = iid_config(m=4, ma=2, mb=2, snr_db=0.0)
    ds = generate_dataset(cfg, "direct", 20_000, seed=11)
    hyper = DenoiserHyper(
        blocks=1, layers_per_block=2, filters=4, ma=2, mb=2, pilots=2, kernel_size=1
    )
    model = build_model(hyper, rng=0)
    model.analysis = True  # linear mode: each block runs its convs alone
    opts = TrainOptions(batch_size=128, max_epochs=60, patience=10, learning_rate=3e-3, seed=0)
    model, _ = train(model, ds, opts)

    lmap = extract_effective_map(model)
    ctx = MmseContext.from_column_cov(np.eye(2), cfg.sigma_u_sq, 2, 2)
    dist = map_distance(lmap, mmse_weight_target(ctx), cfg, "direct", trials=2_000)
    elapsed = time.perf_counter() - t0
    ok = dist.frobenius_rel < 0.05 and elapsed < 300.0
    _report(
        9, ok,
        f"learned map within {dist.frobenius_rel:.3%} of the MMSE target "
        f"(nmse gap {dist.nmse_gap:+.4f}, {elapsed:.0f}s)",
    )


def test_10_complexity_counts():
    rows = complexity_report(SystemConfig(), DenoiserHyper())
    by = {r.method: r.multiplications for r in rows}
    want = {"ls": 128, "mmse": 264, "crld": 42_909_696}
    ok = by == want
    _report(10, ok, f"multiplications {by} == {want}")
