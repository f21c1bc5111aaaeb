"""Training-loop tests: early stopping, best-snapshot restore, failure diagnostics."""

import csv

import numpy as np
import pytest

from ambcest import (
    BatchNorm2D,
    DenoiserHyper,
    NumericError,
    ParameterError,
    StateError,
    SystemConfig,
    TrainOptions,
    build_model,
    evaluate,
    generate_dataset,
    nmse,
    simulate_batch,
    train,
)
from ambcest.channel import TRIAL_BLOCK_BYTES
from ambcest.training import _mean_loss, _split_indices
from conftest import iid_config, set_model_to_ls

SMALL = DenoiserHyper(blocks=1, layers_per_block=3, filters=4, ma=4, mb=4, pilots=2)


def small_dataset(k=256, snr_db=0.0, seed=0):
    return generate_dataset(iid_config(snr_db=snr_db), "direct", k, seed=seed)


class TestTrainOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"max_epochs": 0},
            {"patience": 0},
            {"val_fraction": 0.0},
            {"val_fraction": 1.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"optimizer": "foo"},
            {"momentum": 1.5},  # whatever the optimizer: adam never reads it
            {"momentum": -0.1, "optimizer": "sgd_momentum"},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            TrainOptions(**kwargs)

    def test_defaults(self):
        opts = TrainOptions()
        assert opts.optimizer == "adam" and opts.batch_size == 128


class TestSplit:
    def test_disjoint_and_exhaustive(self):
        tr, va = _split_indices(100, 0.1, np.random.default_rng(0))
        assert len(va) == 10 and len(tr) == 90
        assert set(tr) | set(va) == set(range(100))
        assert not set(tr) & set(va)

    def test_validation_never_empty_or_full(self):
        tr, va = _split_indices(2, 0.01, np.random.default_rng(0))
        assert len(va) == 1 and len(tr) == 1
        tr, va = _split_indices(3, 0.99, np.random.default_rng(0))
        assert len(va) == 2 and len(tr) == 1

    def test_seeded_reproducibility(self):
        a = _split_indices(50, 0.2, np.random.default_rng(4))
        b = _split_indices(50, 0.2, np.random.default_rng(4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestTrain:
    def test_learns_on_noisy_data(self):
        ds = small_dataset(k=512)
        model = build_model(SMALL, rng=0)
        model, hist = train(model, ds, TrainOptions(batch_size=64, max_epochs=8, patience=8, seed=0))
        assert hist.best_val_loss < hist.initial_val_loss
        assert model.mode == "eval"

    def test_history_bookkeeping(self):
        ds = small_dataset(k=256)
        _, hist = train(
            build_model(SMALL, rng=0), ds, TrainOptions(batch_size=64, max_epochs=5, patience=5)
        )
        n = len(hist)
        assert [r.epoch for r in hist.records] == list(range(1, n + 1))
        assert hist.stopped_epoch == n
        best, best_epoch = hist.initial_val_loss, 0
        for r in hist.records:  # is_best marks a strict improvement on every earlier loss
            assert r.is_best == (r.val_loss < best)
            if r.is_best:
                best, best_epoch = r.val_loss, r.epoch
        assert (hist.best_epoch, hist.best_val_loss) == (best_epoch, best)

    def test_parameters_gradients_and_stats_stay_float64(self):
        # train() computes in float32; the master copies it updates must stay float64
        model, _ = train(build_model(SMALL, rng=0), small_dataset(k=64), TrainOptions(batch_size=32, max_epochs=1))
        arrays = {**model.named_parameters(), **model.named_gradients(), **model.named_running_stats()}
        assert any(np.any(g != 0) for g in model.named_gradients().values())  # a step was taken
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}

    def test_patience_stops_training_without_improvement(self):
        # an LS-perfect model on noiseless data has zero loss and zero gradient:
        # no epoch can strictly improve, so training must stop after `patience` epochs
        ds = generate_dataset(iid_config(snr_db=float("inf")), "direct", 64, seed=1)
        model = set_model_to_ls(build_model(SMALL, rng=0))
        before = model.state_dict()
        model, hist = train(model, ds, TrainOptions(batch_size=32, max_epochs=50, patience=3))
        assert hist.stopped_epoch == 3
        assert hist.best_epoch == 0  # nothing beat the initial snapshot
        assert hist.initial_val_loss == 0.0
        after = model.state_dict()
        assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_restores_best_snapshot(self):
        ds = small_dataset(k=256)
        model = build_model(SMALL, rng=2)
        model, hist = train(model, ds, TrainOptions(batch_size=64, max_epochs=6, patience=6, seed=1))
        rng = np.random.default_rng(1)
        _ = rng.permutation(len(ds))  # re-derive the same split the trainer used
        val_idx = _split_indices(len(ds), 0.1, np.random.default_rng(1))[1]
        val = _mean_loss(model, ds.y[val_idx], ds.x[val_idx])
        assert val == pytest.approx(hist.best_val_loss, rel=1e-12)

    def test_deterministic_given_seeds(self):
        ds = small_dataset(k=128)
        opts = TrainOptions(batch_size=32, max_epochs=3, patience=3, seed=5)
        m1, h1 = train(build_model(SMALL, rng=1), ds, opts)
        m2, h2 = train(build_model(SMALL, rng=1), ds, opts)
        assert h1.records == h2.records
        p1, p2 = m1.named_parameters(), m2.named_parameters()
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_poisoned_parameters_abort_with_blame(self):
        ds = small_dataset(k=64)
        model = build_model(SMALL, rng=0)
        model.recon.w[...] = np.nan
        with pytest.raises(NumericError, match=r"initial validation.*recon\.w"):
            train(model, ds, TrainOptions(batch_size=32, max_epochs=2, patience=2))

    def test_non_finite_gradient_names_its_block(self, monkeypatch):
        backward = BatchNorm2D.backward

        def poisoned(self, grad_out):
            grad_in = backward(self, grad_out)
            self.grad_beta[0] = np.inf
            return grad_in

        monkeypatch.setattr(BatchNorm2D, "backward", poisoned)
        with pytest.raises(NumericError, match=r"epoch 1, batch 0: .*gradient block: block0\.bn1\.beta\)"):
            train(build_model(SMALL, rng=0), small_dataset(k=64), TrainOptions(batch_size=32, max_epochs=1))

    def test_divergence_aborts_with_epoch_and_batch(self):
        ds = small_dataset(k=128)
        model = build_model(SMALL, rng=0)
        opts = TrainOptions(
            batch_size=32, max_epochs=20, patience=20,
            optimizer="sgd_momentum", learning_rate=1e10,
        )
        with pytest.raises(NumericError, match=r"epoch \d+, (batch \d+|validation)"):
            train(model, ds, opts)

    def test_geometry_mismatch_rejected(self):
        ds = generate_dataset(SystemConfig(), "direct", 8, seed=0)  # 8x8 data, 4x4 model
        with pytest.raises(ParameterError):
            train(build_model(SMALL, rng=0), ds, TrainOptions())

    def test_tiny_dataset_rejected(self):
        ds = generate_dataset(iid_config(), "direct", 1, seed=0)
        with pytest.raises(ParameterError):
            train(build_model(SMALL, rng=0), ds, TrainOptions())


class TestHistoryCsv:
    def test_round_trips_exact_floats(self, tmp_path):
        ds = small_dataset(k=128)
        _, hist = train(
            build_model(SMALL, rng=0), ds, TrainOptions(batch_size=64, max_epochs=3, patience=3)
        )
        path = tmp_path / "history.csv"
        hist.to_csv(str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "is_best"]
        assert len(rows) == len(hist) + 1
        for row, (epoch, tr, va, best) in zip(rows[1:], hist.records):
            assert int(row[0]) == epoch
            assert float(row[1]) == tr and float(row[2]) == va
            assert row[3] == str(int(best))


class TestEvaluate:
    def test_requires_eval_mode(self):
        model = build_model(SMALL, rng=0).train_mode()
        with pytest.raises(StateError):
            evaluate(model, iid_config(), "direct", 10, np.random.default_rng(0))

    def test_ls_configuration_scores_sigma_over_p(self):
        model = set_model_to_ls(build_model(SMALL, rng=0)).eval_mode()
        score = evaluate(model, iid_config(snr_db=0.0), "direct", 4000, np.random.default_rng(3))
        assert score.value == pytest.approx(0.5, rel=0.05)
        assert score.trials == 4000

    def test_deterministic_under_seeded_rng(self):
        model = set_model_to_ls(build_model(SMALL, rng=0)).eval_mode()
        a = evaluate(model, iid_config(), "direct", 500, np.random.default_rng(9))
        b = evaluate(model, iid_config(), "direct", 500, np.random.default_rng(9))
        assert a.value == b.value

    def test_trials_validated(self):
        model = build_model(SMALL, rng=0).eval_mode()
        with pytest.raises(ParameterError):
            evaluate(model, iid_config(), "direct", 0, np.random.default_rng(0))

    @pytest.mark.parametrize("link", ["direct", "composite"])
    def test_equals_nmse_of_the_full_arrays(self, link):
        # the draws are scored one trial block at a time: two blocks and a remainder
        cfg = iid_config().with_(zeta_db=-5.0)
        trials = 2 * (TRIAL_BLOCK_BYTES // (cfg.na * cfg.m * 8)) + 1000
        model = build_model(SMALL, rng=1).eval_mode()
        score = evaluate(model, cfg, link, trials, np.random.default_rng(4))
        y, x = simulate_batch(cfg, link, trials, np.random.default_rng(4))
        assert score == nmse(x.reshape(trials, -1), model.predict(y).reshape(trials, -1))
