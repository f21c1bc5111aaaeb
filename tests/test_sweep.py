"""Sweep-harness tests: plans, CSV schema, checkpoint reuse, complexity counts."""

import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ambcest import (
    ArtifactError,
    DenoiserHyper,
    ExperimentPlan,
    NmseReport,
    NumericError,
    ParameterError,
    ReportRow,
    SystemConfig,
    TrainOptions,
    build_model,
    complexity_report,
    link_correlation,
    ls_estimate,
    mmse_gain,
    nmse,
    run_sweep,
    simulate_batch,
)
from ambcest.channel import LINKS, TRIAL_BLOCK_BYTES
from ambcest.estimators import _trial_energies
from ambcest.model import PREDICT_CHUNK
from ambcest.sweep import (
    CSV_HEADER,
    METHODS,
    _draw_point,
    _score_point,
    checkpoint_name,
    crld_multiplications,
    format_complexity,
    point_config,
)
from conftest import iid_config

TINY_HYPER = DenoiserHyper(blocks=1, layers_per_block=2, filters=4, ma=4, mb=4, pilots=2)
SMALL_HYPER = replace(TINY_HYPER, ma=8, mb=8)  # the default 8 x 8 geometry
FAST_TRAIN = TrainOptions(batch_size=64, max_epochs=2, patience=2)
BLAS_IS_OPENBLAS = "openblas" in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"].lower()


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc reads while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def score_point(cfg, link, methods, trials, seed, model):
    """_score_point over a point drawn from `seed`, as run_sweep draws it."""
    return _score_point(cfg, link, methods, _draw_point(cfg, link, trials, seed), model)


class TestExperimentPlan:
    def test_defaults(self):
        plan = ExperimentPlan()
        assert plan.axis == "snr" and plan.methods == ("ls", "mmse")
        assert plan.trials == 10_000 and plan.links == ("direct",)

    def test_pilot_values_become_integers(self):
        plan = ExperimentPlan(axis="pilots", values=(2.0, 4.0), trials=100)
        assert plan.values == (2, 4) and all(isinstance(v, int) for v in plan.values)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"axis": "power"},
            {"values": ()},
            {"axis": "pilots", "values": (2.5,)},
            {"methods": ("ls", "dnn")},
            {"links": ("uplink",)},
            {"trials": 99},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ExperimentPlan(**kwargs)


class TestPointConfig:
    def test_snr_axis_moves_snr(self):
        cfg = point_config(SystemConfig(), "snr", -2.0)
        assert cfg.snr_db == -2.0 and cfg.na == 2

    def test_pilot_axis_moves_both_phases(self):
        cfg = point_config(SystemConfig(), "pilots", 8)
        assert cfg.na == 8 and cfg.nb == 8 and cfg.snr_db == -6.0


class TestCheckpointName:
    def test_encodes_the_operating_point(self):
        assert checkpoint_name(SystemConfig(), "direct") == "crld_direct_snr-6dB_p2.ckpt"
        cfg = SystemConfig(snr_db=4.0, nb=16)
        assert checkpoint_name(cfg, "composite") == "crld_composite_snr+4dB_p16.ckpt"

    @pytest.mark.parametrize("snr_db", [0.0, -0.0])
    def test_minus_zero_db_names_the_zero_db_file(self, snr_db):
        assert checkpoint_name(SystemConfig(snr_db=snr_db), "direct") == "crld_direct_snr+0dB_p2.ckpt"


class TestRunSweep:
    @pytest.mark.parametrize("methods", [("ls", "mmse"), ("mmse",), ("mmse", "ls")])
    def test_ls_is_computed_once_per_point(self, methods, monkeypatch):
        import ambcest.sweep as sweep_module

        calls = []
        real_ls = sweep_module.ls_estimate

        def counting_ls(y):
            calls.append(y.shape)
            return real_ls(y)

        plan = ExperimentPlan(values=(-6.0, 0.0), methods=methods, trials=400)
        want = run_sweep(plan, iid_config(), seed=0).rows
        monkeypatch.setattr(sweep_module, "ls_estimate", counting_ls)
        assert run_sweep(plan, iid_config(), seed=0).rows == want
        # LS runs once per trial block, so each trial of each point is averaged once
        assert sum(shape[0] for shape in calls) == plan.trials * len(plan.values)

    def test_truth_energies_are_summed_once_per_point(self, monkeypatch):
        import ambcest.estimators as estimators_module
        import ambcest.sweep as sweep_module

        # two trial blocks a point at M = 16
        plan = ExperimentPlan(values=(-6.0, 0.0), methods=("ls", "mmse"), trials=5_000)
        want = run_sweep(plan, iid_config(), seed=0).rows
        real_draw, real_energies = sweep_module.draw_truths, estimators_module._trial_energies
        blocks, summed = [], []

        def keeping_draw(*args):
            truths = real_draw(*args)
            blocks.extend(truths)
            return truths

        def counting_energies(a):
            summed.extend(i for i, x in enumerate(blocks) if a is x)
            return real_energies(a)

        monkeypatch.setattr(sweep_module, "draw_truths", keeping_draw)
        monkeypatch.setattr(estimators_module, "_trial_energies", counting_energies)
        assert run_sweep(plan, iid_config(), seed=0).rows == want  # bit for bit
        # the truths are held one trial block at a time: each block's energies are summed
        # once, so each truth row is summed once per point; the other calls sum each
        # method's errors
        assert len(blocks) == 2 * len(plan.values) and sorted(summed) == list(range(len(blocks)))
        assert sum(blocks[i].shape[0] for i in summed) == plan.trials * len(plan.values)

    @pytest.mark.parametrize("methods", [("ls", "mmse"), ("ls", "mmse", "crld")])
    @pytest.mark.parametrize("link", ["direct", "composite"])
    def test_point_peak_memory_is_x_a_few_floats_per_trial_and_a_few_blocks(self, link, methods):
        # the observations and the estimates exist one trial block at a time, so a point
        # holds its truths x, an error per trial and method, the truth energies, blocks,
        # and with crld what predict holds for one PREDICT_CHUNK, whatever the block size
        cfg, trials = SystemConfig(), 20_000
        model = build_model(SMALL_HYPER, rng=0).eval_mode() if "crld" in methods else None
        predict_bytes = 0
        if model is not None:
            chunk = np.random.default_rng(0).standard_normal((PREDICT_CHUNK, cfg.ma, cfg.mb, 2))
            predict_bytes = traced_peak(model.predict, chunk)
        peak = traced_peak(score_point, cfg, link, methods, trials, np.random.SeedSequence(0), model)
        x_bytes = trials * cfg.m * 8
        allowance = x_bytes + (len(methods) + 1) * 8 * trials + 3 * TRIAL_BLOCK_BYTES + predict_bytes + 2**20
        assert allowance < 16 * 2**20  # under 17.4 MiB, the bound with 2 MiB blocks
        assert peak <= allowance

    @pytest.mark.skipif(not BLAS_IS_OPENBLAS, reason="the thread rule is OpenBLAS's")
    @pytest.mark.parametrize("link", LINKS)
    def test_blas_threads_stay_idle_during_a_point(self, link):
        # every product of a point runs on the calling thread, so OpenBLAS never wakes its
        # pool, whose threads would spin for a while after each product
        cfg = SystemConfig()
        score_point(cfg, link, ("ls", "mmse"), 300, np.random.SeedSequence(1), None)
        time.sleep(0.5)  # pool threads woken by earlier work go back to sleep
        cpu, own = time.process_time(), time.thread_time()
        score_point(cfg, link, ("ls", "mmse"), 20_000, np.random.SeedSequence(0), None)
        own = time.thread_time() - own
        others = time.process_time() - cpu - own
        assert others < 0.05 * own, f"other threads {others:.3f} s against {own:.3f} s"

    # one short of a trial block, one block, one past it, a block and the longest tail BLAS
    # sums differently, a block and 19, and many blocks and a remainder; from 8 pilots on,
    # LS sums the pilot axis pairwise, which reads the observations' memory layout, and at
    # 16 a block is one slice of the products
    @pytest.mark.parametrize("extra", [-1, 0, 1, 18, 19, None])
    @pytest.mark.parametrize("p", [1, 2, 3, 8, 9, 16])
    @pytest.mark.parametrize("link", ["direct", "composite"])
    def test_rows_equal_the_full_array_reference(self, link, p, extra, monkeypatch):
        import ambcest.estimators as estimators_module

        cfg = SystemConfig(na=p, nb=p)
        trials = 20_011 if extra is None else TRIAL_BLOCK_BYTES // (p * cfg.m * 8) + extra
        model = build_model(replace(SMALL_HYPER, pilots=p), rng=p).eval_mode()
        seed = np.random.SeedSequence(trials)
        real_stats, scored = estimators_module.nmse_from_errors, []

        def keeping_stats(errors, energies):
            scored.append((errors.copy(), energies.copy()))
            return real_stats(errors, energies)

        monkeypatch.setattr(estimators_module, "nmse_from_errors", keeping_stats)
        rows = score_point(cfg, link, METHODS, trials, seed, model)
        # simulate_batch, then each method's full estimate array as one product
        y, x = simulate_batch(cfg, link, trials, np.random.default_rng(seed))
        ls = ls_estimate(y)
        estimates = {
            "crld": model.predict(y),
            "ls": ls,
            "mmse": ls @ mmse_gain(link_correlation(cfg, link), cfg.sigma_u_sq, p).T,
        }
        x = x.reshape(trials, -1)
        # nmse_streamed scores the methods in the order `estimate` yields them
        for (errors, energies), method in zip(scored, estimates):
            err = x - estimates[method].reshape(trials, -1)
            assert np.array_equal(errors.view(np.uint64), _trial_energies(err).view(np.uint64)), method
            assert np.array_equal(energies.view(np.uint64), _trial_energies(x).view(np.uint64))
        for row, method in zip(rows, METHODS):
            want = nmse(x, estimates[method].reshape(trials, -1))
            assert (row.method, row.nmse, row.ci_half_width) == (method, want.value, want.ci_half_width)

    def test_rows_come_back_in_plan_order(self):
        plan = ExperimentPlan(values=(-6.0, 0.0), methods=("ls", "mmse"), trials=400)
        report = run_sweep(plan, iid_config(), seed=0)
        keys = [(r.link, r.snr_db, r.method) for r in report.rows]
        assert keys == [
            ("direct", -6.0, "ls"),
            ("direct", -6.0, "mmse"),
            ("direct", 0.0, "ls"),
            ("direct", 0.0, "mmse"),
        ]

    def test_reproducible_under_fixed_seed(self):
        plan = ExperimentPlan(values=(0.0,), methods=("ls",), trials=400)
        a = run_sweep(plan, iid_config(), seed=3)
        b = run_sweep(plan, iid_config(), seed=3)
        assert a.rows[0].nmse == b.rows[0].nmse

    def test_methods_share_draws_so_mmse_never_loses(self):
        plan = ExperimentPlan(values=(-6.0, 0.0, 6.0), methods=("ls", "mmse"), trials=500)
        report = run_sweep(plan, iid_config(m=16, ma=4, mb=4), seed=1)
        by_point = {}
        for r in report.rows:
            by_point.setdefault(r.snr_db, {})[r.method] = r.nmse
        for snr, scores in by_point.items():
            assert scores["mmse"] <= scores["ls"], f"snr {snr}"

    def test_ls_risk_tracks_snr_axis(self):
        plan = ExperimentPlan(values=(0.0, 6.0), methods=("ls",), trials=2000)
        report = run_sweep(plan, iid_config(m=16, ma=4, mb=4), seed=2)
        assert report.rows[0].nmse == pytest.approx(0.5, rel=0.1)
        assert report.rows[1].nmse == pytest.approx(0.5 * 10 ** -0.6, rel=0.1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_pool_reproduces_serial_rows(self, workers):
        plan = ExperimentPlan(values=(-3.0, 0.0, 3.0), methods=("ls", "mmse"), trials=300)
        serial = run_sweep(plan, iid_config(m=16, ma=4, mb=4), seed=5, workers=1)
        pooled = run_sweep(plan, iid_config(m=16, ma=4, mb=4), seed=5, workers=workers)
        assert serial.rows == pooled.rows

    def test_crld_rows_do_not_depend_on_workers(self, tmp_path):
        plan = ExperimentPlan(values=(-3.0, 0.0, 3.0), methods=METHODS, trials=300)
        kwargs = dict(checkpoint_dir=str(tmp_path), train_missing=True, hyper=TINY_HYPER,
                      train_opts=FAST_TRAIN, train_k=256)
        serial = run_sweep(plan, iid_config(), seed=5, workers=1, **kwargs)
        assert run_sweep(plan, iid_config(), seed=5, workers=2, **kwargs).rows == serial.rows

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("axis, values, shared", [
        ("snr", (0.0, 3.0, 0.0), "0.0 and 0.0"),
        ("snr", (1.0, 1.0000001), "1.0 and 1.0000001"),  # equal under checkpoint_name's %+g
        ("pilots", (2, 3, 2), "2 and 2"),
    ], ids=["snr-repeated", "snr-equal-as-named", "pilots-repeated"])
    def test_crld_points_sharing_a_checkpoint_are_refused_before_any_draw(
        self, axis, values, shared, workers, tmp_path, monkeypatch
    ):
        # they would share one net: the first point's at one worker, a race at more
        import ambcest.sweep as sweep_module

        monkeypatch.setattr(sweep_module, "draw_truths", lambda *args: pytest.fail("a point was drawn"))
        plan = ExperimentPlan(axis=axis, values=values, methods=("ls", "crld"), trials=300)
        with pytest.raises(ParameterError, match=f"{axis} values {shared} of the direct link share"):
            run_sweep(plan, iid_config(), seed=5, checkpoint_dir=str(tmp_path), train_missing=True,
                      hyper=TINY_HYPER, train_opts=FAST_TRAIN, train_k=256, workers=workers)
        assert not any(tmp_path.iterdir())

    def test_repeated_values_without_crld_stay_legal(self):
        plan = ExperimentPlan(values=(0.0, 0.0), methods=("ls", "mmse"), trials=300)
        serial = run_sweep(plan, iid_config(), seed=5, workers=1)
        assert len(serial.rows) == 4
        assert run_sweep(plan, iid_config(), seed=5, workers=4).rows == serial.rows

    def test_the_drawer_thread_ends_with_the_sweep(self):
        plan = ExperimentPlan(values=(-3.0, 0.0, 3.0), methods=("ls",), trials=300)
        before = threading.active_count()
        run_sweep(plan, iid_config(), seed=5)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failure", ["raise", "infinite noise"])
    def test_a_failing_draw_raises_in_plan_order(self, failure, monkeypatch):
        # the third point's draws run while the second point is scored; its error still
        # comes after the first two points, and no drawer thread outlives it
        import ambcest.sweep as sweep_module

        values = (-6.0, -3.0, 0.0, 3.0)
        real_draw, real_score, draws, scored = sweep_module.draw_truths, sweep_module._score_point, [], []
        if failure == "infinite noise":
            values, error = (-6.0, -3.0, float("-inf"), 3.0), (ParameterError, "infinite noise power")
        else:
            error = (NumericError, "third point")

        def failing_draw(*args):
            draws.append(args[0].snr_db)
            if len(draws) == 3:
                raise NumericError("third point")
            return real_draw(*args)

        def keeping_score(cfg, *args):
            scored.append(cfg.snr_db)
            return real_score(cfg, *args)

        if failure == "raise":
            monkeypatch.setattr(sweep_module, "draw_truths", failing_draw)
        monkeypatch.setattr(sweep_module, "_score_point", keeping_score)
        plan = ExperimentPlan(values=values, methods=("ls", "mmse"), trials=300)
        before = threading.active_count()
        with pytest.raises(error[0], match=error[1]):
            run_sweep(plan, iid_config(), seed=0)
        assert scored == list(values[:2])
        assert threading.active_count() == before

    def test_missing_checkpoint_is_a_typed_error(self, tmp_path):
        plan = ExperimentPlan(values=(0.0,), methods=("crld",), trials=200)
        with pytest.raises(ArtifactError, match="crld_direct_snr\\+0dB_p2\\.ckpt"):
            run_sweep(plan, iid_config(), seed=0, checkpoint_dir=str(tmp_path))

    def test_training_on_demand_writes_checkpoints(self, tmp_path):
        plan = ExperimentPlan(values=(0.0,), methods=("crld",), trials=200)
        report = run_sweep(
            plan, iid_config(), seed=0, checkpoint_dir=str(tmp_path),
            train_missing=True, hyper=TINY_HYPER, train_opts=FAST_TRAIN, train_k=256,
        )
        path = tmp_path / "crld_direct_snr+0dB_p2.ckpt"
        assert path.exists()
        assert report.rows[0].method == "crld" and report.rows[0].nmse > 0

    def test_existing_checkpoints_are_reused(self, tmp_path):
        plan = ExperimentPlan(values=(0.0,), methods=("crld",), trials=200)
        kwargs = dict(
            checkpoint_dir=str(tmp_path), train_missing=True,
            hyper=TINY_HYPER, train_opts=FAST_TRAIN, train_k=256,
        )
        run_sweep(plan, iid_config(), seed=0, **kwargs)
        stamp = os.path.getmtime(tmp_path / "crld_direct_snr+0dB_p2.ckpt")
        report = run_sweep(plan, iid_config(), seed=0, **kwargs)  # must load, not retrain
        assert os.path.getmtime(tmp_path / "crld_direct_snr+0dB_p2.ckpt") == stamp
        assert report.rows[0].nmse > 0

    def test_checkpoint_of_another_shape_is_refused(self, tmp_path):
        plan = ExperimentPlan(values=(0.0,), methods=("crld",), trials=200)
        kwargs = dict(
            checkpoint_dir=str(tmp_path), train_missing=True, train_opts=FAST_TRAIN, train_k=256,
        )
        run_sweep(plan, iid_config(), seed=0, hyper=TINY_HYPER, **kwargs)
        wider = replace(TINY_HYPER, filters=TINY_HYPER.filters + 1)
        with pytest.raises(ArtifactError, match="crld_direct_snr\\+0dB_p2.ckpt"):
            run_sweep(plan, iid_config(), seed=0, hyper=wider, **kwargs)


class TestCsvOutput:
    def rows(self):
        return [
            ReportRow("direct", "ls", -6.0, 2, 1.99, 0.02, 400),
            ReportRow("direct", "mmse", -6.0, 2, 0.31, 0.01, 400),
        ]

    def test_schema_and_exact_floats(self, tmp_path):
        path = tmp_path / "report.csv"
        NmseReport(rows=self.rows()).to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "direct,ls,-6.0,2,1.99,0.02,400"
        assert len(lines) == 3

    def test_report_is_byte_stable(self, tmp_path):
        # rows hold no timings, so a fixed plan and seed give the same bytes, pooled or not
        plan = ExperimentPlan(values=(-3.0, 3.0), methods=("ls", "mmse"), trials=300)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(plan, iid_config(m=16, ma=4, mb=4), seed=5, workers=1).to_csv(str(a))
        run_sweep(plan, iid_config(m=16, ma=4, mb=4), seed=5, workers=2).to_csv(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_negative_nmse_rejected(self):
        with pytest.raises(ParameterError):
            ReportRow("direct", "ls", 0.0, 2, -0.1, 0.0, 100)

    def test_nan_nmse_rejected(self):
        # NaN < 0 is False, so a `< 0` check alone would write a nan row to the CSV
        with pytest.raises(ParameterError):
            ReportRow("direct", "ls", 0.0, 2, float("nan"), 0.0, 100)


class TestComplexity:
    def test_reference_counts_are_exact(self):
        rows = complexity_report(SystemConfig(), DenoiserHyper())
        by_method = {r.method: r for r in rows}
        assert by_method["ls"].multiplications == 64 * 2
        assert by_method["mmse"].multiplications == 2**3 + 64 * 2**2
        assert by_method["crld"].multiplications == 42_909_696

    def test_crld_count_formula_small_case(self):
        hyper = DenoiserHyper(blocks=2, layers_per_block=3, filters=4, ma=2, mb=2, pilots=3, kernel_size=1)
        # widths 3,4,4,3: per position 3*1*4 + 4*1*4 + 4*1*3 = 40; times B*M = 2*4
        assert crld_multiplications(hyper, 4) == 2 * 4 * 40

    def test_format_renders_all_methods(self):
        text = format_complexity(complexity_report(iid_config(), TINY_HYPER))
        for token in ("ls", "mmse", "crld", "multiplications"):
            assert token in text
