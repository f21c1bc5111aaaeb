"""Command-line tests: end-to-end subcommand flows and exit-code contracts."""

import numpy as np
import pytest

from ambcest import load_checkpoint, load_dataset
from ambcest.cli import main

SMALL_SYSTEM = "m=16\nma=4\nmb=4\ncorr_model=identity\nrho=0.0\nsnr_db=0\nzeta_db=-inf\n"
FAST_TRAIN = "batch_size=64\nmax_epochs=2\npatience=2\n"
TINY_NET = ["--blocks", "1", "--layers-per-block", "2", "--filters", "4"]


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(SMALL_SYSTEM + FAST_TRAIN)
    return str(path)


def gen_small_dataset(tmp_path, config, k=128):
    data = str(tmp_path / "data.ambd")
    code = main(["gen-data", "--config", config, "--k", str(k), "--out", data])
    assert code == 0
    return data


class TestGenData:
    def test_writes_a_loadable_container(self, tmp_path, config, capsys):
        data = gen_small_dataset(tmp_path, config)
        out = capsys.readouterr().out
        assert "128 examples" in out and "link=direct" in out
        ds = load_dataset(data)
        assert len(ds) == 128 and ds.cfg.m == 16

    def test_seed_override_changes_the_draws(self, tmp_path, config):
        a = str(tmp_path / "a.ambd")
        b = str(tmp_path / "b.ambd")
        c = str(tmp_path / "c.ambd")
        assert main(["gen-data", "--config", config, "--k", "8", "--out", a, "--seed", "1"]) == 0
        assert main(["gen-data", "--config", config, "--k", "8", "--out", b, "--seed", "1"]) == 0
        assert main(["gen-data", "--config", config, "--k", "8", "--out", c, "--seed", "2"]) == 0
        ya, yb, yc = (load_dataset(p).y for p in (a, b, c))
        assert np.array_equal(ya, yb) and not np.array_equal(ya, yc)


class TestTrainEval:
    def test_train_writes_checkpoint_and_history(self, tmp_path, config, capsys):
        data = gen_small_dataset(tmp_path, config)
        ckpt = str(tmp_path / "model.ckpt")
        hist = str(tmp_path / "history.csv")
        code = main(
            ["train", "--config", config, "--data", data, "--out", ckpt, "--history", hist]
            + TINY_NET
        )
        assert code == 0
        assert "best val loss" in capsys.readouterr().out
        model = load_checkpoint(ckpt)
        assert model.hyper.blocks == 1 and model.hyper.filters == 4
        assert (tmp_path / "history.csv").read_text().startswith("epoch,train_loss")

    def test_default_checkpoint_name_follows_convention(self, tmp_path, config):
        data = gen_small_dataset(tmp_path, config)
        ckdir = tmp_path / "ckpts"
        code = main(
            ["train", "--config", config, "--data", data, "--checkpoint-dir", str(ckdir)]
            + TINY_NET
        )
        assert code == 0
        assert (ckdir / "crld_direct_snr+0dB_p2.ckpt").exists()

    def test_eval_prints_score(self, tmp_path, config, capsys):
        data = gen_small_dataset(tmp_path, config)
        ckpt = str(tmp_path / "model.ckpt")
        main(["train", "--config", config, "--data", data, "--out", ckpt] + TINY_NET)
        capsys.readouterr()
        code = main(["eval", "--config", config, "--checkpoint", ckpt, "--trials", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nmse=" in out and "trials=300" in out

    def test_eval_takes_fewer_trials_than_a_sweep_needs(self, tmp_path, config, capsys):
        # --trials is eval's own count, not the sweep plan's (which must be >= 100)
        data = gen_small_dataset(tmp_path, config)
        ckpt = str(tmp_path / "model.ckpt")
        main(["train", "--config", config, "--data", data, "--out", ckpt] + TINY_NET)
        capsys.readouterr()
        assert main(["eval", "--config", config, "--checkpoint", ckpt, "--trials", "50"]) == 0
        assert "trials=50" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path, config, capsys):
        out = str(tmp_path / "report.csv")
        code = main(
            ["sweep", "--config", config, "--trials", "200", "--out", out,
             "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "link,method,snr_db,p,nmse,ci_half_width,trials"
        assert len(lines) == 1 + 12 * 2  # default snr grid x (ls, mmse)

    def test_sweep_can_train_missing_models(self, tmp_path, config):
        out = str(tmp_path / "report.csv")
        conf = tmp_path / "sweep.conf"
        conf.write_text(SMALL_SYSTEM + FAST_TRAIN + "values=0\nmethods=ls,crld\ntrials=200\n")
        code = main(
            ["sweep", "--config", str(conf), "--out", out, "--checkpoint-dir",
             str(tmp_path / "ck"), "--train", "--train-k", "256"] + TINY_NET
        )
        assert code == 0
        assert (tmp_path / "ck" / "crld_direct_snr+0dB_p2.ckpt").exists()


class TestAnalyzeCommand:
    def test_reports_regime_and_distance(self, tmp_path, config, capsys):
        data = gen_small_dataset(tmp_path, config, k=256)
        ckpt = str(tmp_path / "model.ckpt")
        main(
            ["train", "--config", config, "--data", data, "--out", ckpt,
             "--kernel-size", "1"] + TINY_NET
        )
        capsys.readouterr()
        code = main(["analyze", "--config", config, "--checkpoint", ckpt])
        assert code == 0
        out = capsys.readouterr().out
        assert "regime: right" in out
        assert "relative Frobenius distance" in out
        assert "nmse gap" in out


    def test_score_ignores_the_sweep_trial_count(self, tmp_path, config, capsys):
        data = gen_small_dataset(tmp_path, config, k=256)
        ckpt = str(tmp_path / "model.ckpt")
        main(
            ["train", "--config", config, "--data", data, "--out", ckpt,
             "--kernel-size", "1"] + TINY_NET
        )
        swept = tmp_path / "swept.conf"
        swept.write_text(SMALL_SYSTEM + "trials=5000\n")
        capsys.readouterr()
        outs = []
        for conf in (config, str(swept)):
            assert main(["analyze", "--config", conf, "--checkpoint", ckpt]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestComplexityCommand:
    def test_prints_reference_counts(self, capsys):
        assert main(["complexity"]) == 0
        out = capsys.readouterr().out
        assert "42909696" in out and "128" in out and "264" in out


class TestExitCodes:
    def test_missing_config_file_is_2(self, capsys):
        assert main(["complexity", "--config", "/nonexistent.conf"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_directory_is_2(self, tmp_path, capsys):
        assert main(["complexity", "--config", str(tmp_path)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["gen-data", "--k", "10", "--out"],
        ["sweep", "--trials", "100", "--out"],
        ["eval", "--checkpoint"],
    ])
    def test_directory_as_artifact_path_is_3(self, tmp_path, config, capsys, command):
        assert main(command + [str(tmp_path), "--config", config]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and str(tmp_path) in err and ".tmp" not in err
        assert not list(tmp_path.parent.glob(f"{tmp_path.name}*.tmp"))  # the temp file is gone

    def test_sweep_over_a_checkpoint_of_another_shape_is_3(self, tmp_path, config, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(SMALL_SYSTEM + FAST_TRAIN + "values=0\nmethods=crld\ntrials=200\n")
        run = ["sweep", "--config", str(conf), "--out", str(tmp_path / "report.csv"),
               "--checkpoint-dir", str(tmp_path / "ck"), "--train", "--train-k", "256"]
        assert main(run + TINY_NET) == 0
        capsys.readouterr()
        assert main(run + TINY_NET + ["--filters", "8"]) == 3
        err = capsys.readouterr().err
        assert "crld_direct_snr+0dB_p2.ckpt" in err and "filters=4" in err and "filters=8" in err

    def test_bad_config_key_is_2(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("bogus=1\n")
        assert main(["complexity", "--config", str(conf)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_checkpoint_is_3(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.ckpt")]) == 3
        assert "checkpoint not found" in capsys.readouterr().err

    def test_corrupt_dataset_is_3(self, tmp_path, config, capsys):
        data = tmp_path / "data.ambd"
        data.write_bytes(b"not a dataset at all")
        code = main(["train", "--config", config, "--data", str(data)] + TINY_NET)
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_flipped_checkpoint_header_bit_is_3(self, tmp_path, config, capsys):
        data = gen_small_dataset(tmp_path, config)
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--config", config, "--data", data, "--out", str(ckpt)] + TINY_NET)
        capsys.readouterr()
        raw = bytearray(ckpt.read_bytes())
        raw[32] ^= 0x01  # low bit of the kernel_size header field: 3 becomes 2
        ckpt.write_bytes(bytes(raw))
        code = main(["eval", "--config", config, "--checkpoint", str(ckpt), "--trials", "200"])
        assert code == 3
        assert "CRC32" in capsys.readouterr().err

    def test_numeric_divergence_is_4(self, tmp_path, capsys):
        conf = tmp_path / "diverge.conf"
        conf.write_text(
            SMALL_SYSTEM + "optimizer=sgd_momentum\nlearning_rate=1e10\nmax_epochs=20\n"
        )
        data = gen_small_dataset(tmp_path, str(conf))
        code = main(["train", "--config", str(conf), "--data", data,
                     "--out", str(tmp_path / "m.ckpt")] + TINY_NET)
        assert code == 4
        assert "epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["zeta_db=nan", "zeta_db=inf", "f=nan", "f=inf"])
    def test_non_finite_reflection_is_2_and_writes_nothing(self, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"m=16\nma=4\nmb=4\n{line}\n")
        out = tmp_path / "data.ambd"
        code = main(["gen-data", "--config", str(conf), "--link", "composite", "--k", "200",
                     "--out", str(out)])
        assert code == 2
        assert str(conf) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["learning_rate=nan", "learning_rate=inf", "optimizer=foo"])
    def test_bad_optimizer_setting_is_2_before_training(self, tmp_path, config, capsys, line):
        data = gen_small_dataset(tmp_path, config)
        conf = tmp_path / "bad.conf"
        conf.write_text(SMALL_SYSTEM + FAST_TRAIN + line + "\n")
        ckpt = tmp_path / "m.ckpt"
        history = tmp_path / "history.csv"
        capsys.readouterr()
        code = main(["train", "--config", str(conf), "--data", data, "--out", str(ckpt),
                     "--history", str(history)] + TINY_NET)
        assert code == 2
        assert str(conf) in capsys.readouterr().err
        assert not ckpt.exists() and not history.exists()

    def test_geometry_mismatch_is_2(self, tmp_path, config, capsys):
        data = gen_small_dataset(tmp_path, config)
        ckpt = str(tmp_path / "model.ckpt")
        main(["train", "--config", config, "--data", data, "--out", ckpt] + TINY_NET)
        capsys.readouterr()
        # default config is the 8x8 geometry; the checkpoint was trained at 4x4
        code = main(["eval", "--checkpoint", ckpt, "--trials", "200"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
