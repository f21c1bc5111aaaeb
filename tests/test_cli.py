"""Command-line tests: end-to-end subcommand flows and exit-code contracts."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambcest import DenoiserHyper, load_checkpoint, load_dataset
from ambcest.cli import main
from ambcest.config import _KEYS

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

    @pytest.mark.parametrize("command, name, what", [
        (["train", "--data"], "missing.ambd", "dataset"),
        (["analyze", "--checkpoint"], "missing.ckpt", "checkpoint"),
    ])
    def test_missing_input_artifact_is_3_and_named(self, tmp_path, capsys, command, name, what):
        path = str(tmp_path / name)
        assert main(command + [path]) == 3
        assert f"error: {what} not found: {path}" in capsys.readouterr().err

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

    # the last five overflow 10^(dB/10) or f^2, or underflow it to 0
    @pytest.mark.parametrize("line", ["zeta_db=nan", "zeta_db=inf", "f=nan", "f=inf", "snr_db=1e308",
                                      "zeta_db=1e308", "snr_db=-1e308", "f=1e-320", "f=-1e308"])
    def test_non_finite_reflection_is_2_and_writes_nothing(self, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"m=16\nma=4\nmb=4\n{line}\n")
        out = tmp_path / "data.ambd"
        code = main(["gen-data", "--config", str(conf), "--link", "composite", "--k", "200",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(conf) in err and line.split("=")[0] in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_seed_wider_than_the_header_field_is_2_and_writes_nothing(self, tmp_path, capsys):
        conf = tmp_path / "small.conf"
        conf.write_text(SMALL_SYSTEM)
        out = tmp_path / "data.ambd"
        code = main(["gen-data", "--config", str(conf), "--k", "16", "--out", str(out),
                     "--seed", str(2**32)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err
        assert not out.exists()

    def test_seed_wider_than_the_header_field_is_refused_before_the_draw(self, tmp_path, capsys, monkeypatch):
        def draw(*args, **kwargs):
            pytest.fail("gen-data simulated a dataset it cannot save")

        monkeypatch.setattr("ambcest.dataset.simulate_batch", draw)
        out = tmp_path / "data.ambd"
        assert main(["gen-data", "--k", "16", "--out", str(out), "--seed", str(2**32)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 12.0 GiB for an array", ""])
    def test_out_of_memory_is_2_with_one_error_line(self, tmp_path, capsys, monkeypatch, message):
        # the draw raises as numpy does when the host cannot hold the array; nothing is
        # allocated
        def draw(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("ambcest.cli.generate_dataset", draw)
        out = tmp_path / "data.ambd"
        assert main(["gen-data", "--k", "16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message or 'out of memory'}\n" and not out.exists()

    # numpy refuses an array of 2**64 elements before it allocates anything; a count just
    # under 2**32 would allocate, so only 2**64 is tried
    @pytest.mark.parametrize("key, line, command", [
        ("m", "m=BIG", ["gen-data", "--k", "1"]),
        ("ma", "ma=BIG", ["gen-data", "--k", "1"]),
        ("mb", "mb=BIG", ["gen-data", "--k", "1"]),
        ("na", "na=BIG", ["gen-data", "--k", "1"]),
        ("nb", "nb=BIG", ["gen-data", "--k", "1", "--link", "composite"]),
        ("values", "axis=pilots\nvalues=BIG", ["sweep"]),
        ("trials", "trials=BIG", ["sweep"]),
        ("k", "", ["gen-data", "--k", "BIG"]),
        ("trials", "", ["eval", "--trials", "BIG"]),
        ("train_k", "methods=crld", ["sweep", "--train", "--train-k", "BIG"]),
    ], ids=["m", "ma", "mb", "na", "nb", "values", "trials", "--k", "eval--trials", "--train-k"])
    def test_count_at_2_64_is_2_and_named(self, tmp_path, capsys, key, line, command):
        big = str(2**64)
        conf = tmp_path / "big.conf"
        conf.write_text(SMALL_SYSTEM + line.replace("BIG", big) + "\n")
        out = tmp_path / "out"
        paths = {"gen-data": ["--out", str(out)], "eval": ["--checkpoint", str(out)],
                 "sweep": ["--out", str(out), "--checkpoint-dir", str(tmp_path / "ck")]}
        argv = [a.replace("BIG", big) for a in command] + paths[command[0]]
        assert main(argv + ["--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and f"{key}={big}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.conf"]

    @pytest.mark.parametrize("line", ["learning_rate=nan", "learning_rate=inf", "optimizer=foo", "momentum=1.5"])
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

    @pytest.mark.parametrize("line, flags", [("", ["--seed", "-5"]), ("seed=-1\n", []), ("train_seed=-1\n", [])],
                             ids=["--seed", "seed", "train_seed"])
    def test_negative_seed_is_2_and_writes_nothing(self, tmp_path, capsys, line, flags):
        conf = tmp_path / "bad.conf"
        conf.write_text(SMALL_SYSTEM + line)
        out = tmp_path / "data.ambd"
        code = main(["gen-data", "--config", str(conf), "--k", "16", "--out", str(out)] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_workers_below_one_is_2(self, tmp_path, config, capsys, workers):
        out = tmp_path / "report.csv"
        code = main(["sweep", "--config", config, "--trials", "200", "--out", str(out),
                     "--checkpoint-dir", str(tmp_path), "--workers", workers])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "workers" in err
        assert not out.exists()

    def test_crld_points_sharing_a_checkpoint_are_2_and_write_nothing(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(SMALL_SYSTEM + FAST_TRAIN + "values=1,1.0000001\nmethods=ls,crld\ntrials=200\n")
        out, ck = tmp_path / "report.csv", tmp_path / "ck"
        code = main(["sweep", "--config", str(conf), "--out", str(out), "--checkpoint-dir", str(ck),
                     "--train", "--train-k", "256"] + TINY_NET)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1.0 and 1.0000001" in err and "crld_direct_snr+1dB_p2.ckpt" in err
        assert not out.exists() and not ck.exists()

    def test_geometry_mismatch_is_2(self, tmp_path, config, capsys):
        data = gen_small_dataset(tmp_path, config)
        ckpt = str(tmp_path / "model.ckpt")
        main(["train", "--config", config, "--data", data, "--out", ckpt] + TINY_NET)
        capsys.readouterr()
        # default config is the 8x8 geometry; the checkpoint was trained at 4x4
        code = main(["eval", "--checkpoint", ckpt, "--trials", "200"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval", "--trials", "200"], ["analyze"]])
    def test_a_checkpoint_for_another_pilot_count_is_named(self, tmp_path, config, capsys, command):
        data = gen_small_dataset(tmp_path, config)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", config, "--data", data, "--out", ckpt] + TINY_NET) == 0
        capsys.readouterr()
        na3 = tmp_path / "na3.conf"
        na3.write_text(SMALL_SYSTEM + "na=3\n")  # the net reads P=2 pilot slices
        code = main([command[0], "--config", str(na3), "--checkpoint", ckpt, *command[1:]])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert ckpt in err and "(4, 4, 2)" in err and "(4, 4, 3)" in err


# every key whose value is a number (values is a list of them), set to each extreme
NUMERIC_KEYS = [key for key, (_, _, cast) in _KEYS.items() if cast in (int, float)] + ["values"]
EXTREMES = [-1, 0, 1e308, -1e308, float("inf"), float("-inf"), float("nan"), 2**64, 1e-320]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.ambd"
    conf = path.with_suffix(".conf")
    conf.write_text(SMALL_SYSTEM)
    assert main(["gen-data", "--config", str(conf), "--k", "32", "--out", str(path)]) == 0
    return str(path)


class TestExitCodeContract:
    # 459 combinations, most refused at parse time; the whole run takes seconds
    @settings(max_examples=500)
    @given(key=st.sampled_from(NUMERIC_KEYS), value=st.sampled_from(EXTREMES),
           command=st.sampled_from(["gen-data", "train", "sweep"]))
    @example(key="na", value=2**64, command="gen-data")
    @example(key="trials", value=2**64, command="sweep")
    @example(key="learning_rate", value=1e308, command="train")  # diverges: exit 4
    def test_one_extreme_key_ends_in_a_documented_exit_code(self, tiny_dataset, key, value, command):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            conf = tmp / "run.conf"
            conf.write_text(SMALL_SYSTEM + "max_epochs=1\npatience=1\nvalues=0\ntrials=100\n"
                            f"{key}={value}\n")
            argv = {
                "gen-data": ["gen-data", "--k", "16", "--out", str(tmp / "data.ambd")],
                "train": ["train", "--data", tiny_dataset, "--out", str(tmp / "m.ckpt")] + TINY_NET,
                "sweep": ["sweep", "--out", str(tmp / "report.csv"), "--checkpoint-dir", str(tmp),
                          "--workers", "1"],
            }[command]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(argv + ["--config", str(conf)])  # an exception here is a traceback
        assert code in (0, 2, 3, 4)
        # a warning would print on stderr too when the command runs as a process
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert not any("Traceback" in line for line in lines)
        if code:
            assert len(lines) == 1 and lines[0].startswith("error:"), lines

    # complexity allocates nothing, so a shape flag that escaped the check would show as
    # an OverflowError from the multiply count, not as memory use
    @pytest.mark.parametrize("value", [2**32, 2**64])
    @pytest.mark.parametrize("flag", ["--blocks", "--layers-per-block", "--filters", "--kernel-size"])
    def test_shape_flag_at_2_32_is_2_and_named(self, capsys, flag, value):
        assert main(["complexity", flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}={value} must be below 2**32\n"

    # a net under the u32 bound that still needs more than 2**48 bytes: numpy cannot
    # address the first two (a ParameterError naming the size), and the host cannot hold
    # the last two (a MemoryError); either is refused at the net's one allocation, before
    # any layer or block exists
    @pytest.mark.parametrize("flag, value", [
        ("--kernel-size", 2**32 - 1), ("--filters", 2**32 - 1),
        ("--blocks", 2**31 - 1), ("--layers-per-block", 2**32 - 1),
    ])
    def test_net_too_large_to_build_on_train_is_2(self, capsys, tmp_path, tiny_dataset, flag, value):
        ds = load_dataset(tiny_dataset)
        hyper = DenoiserHyper(ma=ds.cfg.ma, mb=ds.cfg.mb, pilots=ds.pilots, **{flag[2:].replace("-", "_"): value})
        assert hyper.state_size * 8 > 2**48
        out = tmp_path / "m.ckpt"
        assert main(["train", "--data", tiny_dataset, "--out", str(out), flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        if hyper.state_size * 8 > np.iinfo(np.intp).max:
            assert str(hyper.state_size) in captured.err
        assert not out.exists()

    # train loads its dataset first, then refuses the flag before it builds any layer
    @pytest.mark.parametrize("value", [2**32, 2**64])
    @pytest.mark.parametrize("flag", ["--blocks", "--layers-per-block", "--filters", "--kernel-size"])
    def test_shape_flag_at_2_32_on_train_is_2_and_named(self, capsys, tmp_path, tiny_dataset, flag, value):
        out = tmp_path / "m.ckpt"
        assert main(["train", "--data", tiny_dataset, "--out", str(out), flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}={value} must be below 2**32\n"
        assert not out.exists()
