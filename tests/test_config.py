"""Config-file tests: parsing, diagnostics with line numbers, dump round-trip."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambcest import ConfigError, CorrelationSpec, SystemConfig, TrainOptions
from ambcest.config import dump_config, parse_config, parse_config_text
from ambcest.sweep import ExperimentPlan


class TestParsing:
    def test_empty_text_gives_defaults(self):
        cfg, plan, opts = parse_config_text("")
        assert cfg == SystemConfig()
        assert plan == ExperimentPlan()
        assert opts == TrainOptions()

    def test_full_grammar(self):
        text = """
        # physical operating point
        m=16
        ma=4
        mb=4
        snr_db=-6
        zeta_db=-5
        corr_model=exponential
        rho=0.85

        axis=pilots
        values=2,4,8
        methods=ls,mmse
        trials=500
        out=run.csv

        batch_size=64
        learning_rate=0.003
        """
        cfg, plan, opts = parse_config_text(text)
        assert cfg.m == 16 and cfg.snr_db == -6.0
        assert cfg.corr_h.rho == 0.85 and cfg.corr_g.rho == 0.85
        assert plan.axis == "pilots" and plan.values == (2, 4, 8)
        assert plan.methods == ("ls", "mmse") and plan.trials == 500
        assert opts.batch_size == 64 and opts.learning_rate == 0.003

    def test_partial_files_keep_the_dataclass_defaults(self):
        cfg, _, _ = parse_config_text("m=16\nma=4\nmb=4\n")
        assert cfg == SystemConfig(m=16, ma=4, mb=4)
        assert cfg.corr_h.dim == cfg.corr_g.dim == 16
        cfg, _, _ = parse_config_text("rho=0.5\n")
        assert cfg.corr_h == cfg.corr_g == replace(SystemConfig().corr_h, rho=0.5)

    def test_comments_and_blank_lines_skipped(self):
        cfg, _, _ = parse_config_text("# just a comment\n\nm=16\nma=4\nmb=4\n")
        assert cfg.m == 16

    def test_correlation_applies_to_both_links(self):
        cfg, _, _ = parse_config_text("corr_model=identity\nrho=0.0\n")
        assert cfg.corr_h.model == "identity" and cfg.corr_g.model == "identity"

    def test_seed_keys_are_separate(self):
        cfg, _, opts = parse_config_text("seed=3\ntrain_seed=9\n")
        assert cfg.seed == 3 and opts.seed == 9

    def test_parse_config_reads_files(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("m=16\nma=4\nmb=4\ntrials=200\n")
        cfg, plan, _ = parse_config(str(path))
        assert cfg.m == 16 and plan.trials == 200


class TestDiagnostics:
    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("m=16\nbogus=1\n")
        assert err.value.key == "bogus" and err.value.line == 2
        assert "bogus" in str(err.value)

    def test_missing_equals_names_the_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("# header\njust words\n")
        assert err.value.line == 2

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("snr_db=abc\n")
        assert err.value.key == "snr_db" and err.value.line == 1

    def test_removed_strict_key_rejected(self):
        # reports carry no timings, so there is nothing left for `strict` to stabilise
        with pytest.raises(ConfigError) as err:
            parse_config_text("strict=false\n")
        assert err.value.key == "strict"

    def test_inconsistent_geometry_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="must equal m"):
            parse_config_text("m=64\nma=8\nmb=9\n")

    def test_bad_plan_value_reported_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("axis=sideways\n")


class TestDumpRoundTrip:
    def test_defaults_round_trip(self):
        cfg, plan, opts = SystemConfig(), ExperimentPlan(), TrainOptions()
        text = dump_config(cfg, plan, opts)
        cfg2, plan2, opts2 = parse_config_text(text)
        assert cfg2 == cfg and plan2 == plan and opts2 == opts

    def test_awkward_floats_round_trip(self):
        cfg, plan, opts = parse_config_text(
            "snr_db=-6.700000000000001\nlearning_rate=0.0001\nzeta_db=-inf\n"
        )
        cfg2, plan2, opts2 = parse_config_text(dump_config(cfg, plan, opts))
        assert cfg2 == cfg and plan2 == plan and opts2 == opts

    def test_pilot_axis_round_trips(self):
        _, plan, _ = parse_config_text("axis=pilots\nvalues=2,4,16\n")
        assert plan.values == (2, 4, 16)
        _, plan2, _ = parse_config_text(dump_config(SystemConfig(), plan, TrainOptions()))
        assert plan2 == plan

    def test_dump_is_itself_stable(self):
        cfg, plan, opts = parse_config_text("m=16\nma=4\nmb=4\nvalues=-10,0,10\n")
        text = dump_config(cfg, plan, opts)
        assert dump_config(*parse_config_text(text)) == text

    def test_differing_link_specs_cannot_be_dumped(self):
        cfg = SystemConfig(
            corr_h=CorrelationSpec("exponential", 0.9, 64),
            corr_g=CorrelationSpec("identity", 0.0, 64),
        )
        with pytest.raises(ConfigError):
            dump_config(cfg, ExperimentPlan(), TrainOptions())


finite = st.floats(-40.0, 40.0, allow_nan=False)


@st.composite
def run_configs(draw):
    """Random valid (SystemConfig, ExperimentPlan, TrainOptions) triples."""
    ma, mb = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    spec = CorrelationSpec(
        draw(st.sampled_from(["identity", "exponential"])), draw(st.floats(0.0, 0.99)), ma * mb
    )
    cfg = SystemConfig(
        m=ma * mb, ma=ma, mb=mb,
        snr_db=draw(finite | st.just(float("inf"))),
        zeta_db=draw(finite | st.just(float("-inf"))),
        f=draw(st.floats(0.1, 10.0)),
        corr_h=spec, corr_g=spec,
        na=draw(st.integers(1, 8)), nb=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**31)),
    )
    axis = draw(st.sampled_from(["snr", "pilots"]))
    values = st.integers(1, 64) if axis == "pilots" else finite
    plan = ExperimentPlan(
        axis=axis,
        values=tuple(draw(st.lists(values, min_size=1, max_size=5))),
        methods=tuple(draw(st.lists(st.sampled_from(["ls", "mmse", "crld"]), min_size=1, unique=True))),
        links=tuple(draw(st.lists(st.sampled_from(["direct", "composite"]), min_size=1, unique=True))),
        trials=draw(st.integers(100, 10**6)),
        out=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,24}", fullmatch=True)),
    )
    opts = TrainOptions(
        batch_size=draw(st.integers(1, 1024)),
        max_epochs=draw(st.integers(1, 500)),
        patience=draw(st.integers(1, 50)),
        val_fraction=draw(st.floats(0.01, 0.99)),
        optimizer=draw(st.sampled_from(["adam", "sgd_momentum"])),
        learning_rate=draw(st.floats(1e-6, 1.0)),
        momentum=draw(st.floats(0.0, 0.99)),
        seed=draw(st.integers(0, 2**31)),
    )
    return cfg, plan, opts


class TestDumpRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(run=run_configs())
    def test_dump_then_parse_is_the_identity(self, run):
        assert parse_config_text(dump_config(*run)) == run
