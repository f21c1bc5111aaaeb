"""Sweep-harness tests: plans, CSV schema, checkpoint reuse, complexity counts."""

import os
from dataclasses import replace

import numpy as np
import pytest

from ambcest import (
    ArtifactError,
    DenoiserHyper,
    ExperimentPlan,
    NmseReport,
    ParameterError,
    ReportRow,
    SystemConfig,
    TrainOptions,
    complexity_report,
    run_sweep,
)
from ambcest.sweep import (
    CSV_HEADER,
    checkpoint_name,
    crld_multiplications,
    format_complexity,
    point_config,
)
from conftest import iid_config

TINY_HYPER = DenoiserHyper(blocks=1, layers_per_block=2, filters=4, ma=4, mb=4, pilots=2)
FAST_TRAIN = TrainOptions(batch_size=64, max_epochs=2, patience=2)


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
        assert checkpoint_name("direct", -6.0, 2) == "crld_direct_snr-6dB_p2.ckpt"
        assert checkpoint_name("composite", 4.0, 16) == "crld_composite_snr+4dB_p16.ckpt"


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
        assert len(calls) == len(plan.values)

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

    def test_worker_pool_reproduces_serial_rows(self):
        plan = ExperimentPlan(values=(-3.0, 0.0, 3.0), methods=("ls", "mmse"), trials=300)
        serial = run_sweep(plan, iid_config(m=16, ma=4, mb=4), seed=5, workers=1)
        pooled = run_sweep(plan, iid_config(m=16, ma=4, mb=4), seed=5, workers=3)
        assert [(r.method, r.snr_db, r.nmse) for r in serial.rows] == [
            (r.method, r.snr_db, r.nmse) for r in pooled.rows
        ]

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
