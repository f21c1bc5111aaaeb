"""The golden pipeline (scripts/golden.py) against values recorded at commit b6dac2d.

The pipeline runs the CLI in subprocesses on one BLAS thread.  What it may and may not
move:
  - data.ambd and the LS and MMSE rows of sweep.csv never move: exact bytes;
  - CRLD numbers move with float rounding in training: the CRLD rows of sweep.csv, the
    losses of history.csv and both eval NMSEs are held to REL of the recorded values;
  - every checkpoint loads, and history.csv's best epoch does not move;
  - sweep_reuse.csv, a second sweep that loads the trained checkpoints instead of
    training them, equals sweep.csv byte for byte.
A change that moves CRLD beyond REL updates the values here and says why.
"""

import csv
import importlib.util
import re
from pathlib import Path

import pytest

from ambcest.checkpoint import load_checkpoint

ROOT = Path(__file__).resolve().parents[1]
RECORDED_AT = "b6dac2d"
REL = 1e-3

DATA_SHA256 = "f85e8d40156fd194a365c5678f193149f3fb74689a33946eaae38078097117a8"
CLASSIC_ROWS = [
    "direct,ls,-4.0,2,1.2707438640309745,0.08186103447292532,1000",
    "direct,mmse,-4.0,2,0.26251549305448546,0.016787621105380696,1000",
    "direct,ls,4.0,2,0.18938038302490393,0.013663705626799775,1000",
    "direct,mmse,4.0,2,0.08854775645798453,0.006140836259836726,1000",
    "composite,ls,-4.0,2,0.9804637798866965,0.08294787291571473,1000",
    "composite,mmse,-4.0,2,0.243865766675005,0.02020535886455833,1000",
    "composite,ls,4.0,2,0.15020430753150102,0.010300922865002832,1000",
    "composite,mmse,4.0,2,0.07944849270608154,0.005077135990315818,1000",
]
# (link, snr_db) -> (nmse, ci_half_width); p=2 and trials=1000 are exact
CRLD_ROWS = {
    ("direct", "-4.0"): (3.2206559242975175, 0.11626566318521524),
    ("direct", "4.0"): (3.915454669917324, 0.1575779680923487),
    ("composite", "-4.0"): (1.2539563870982329, 0.07402818398393343),
    ("composite", "4.0"): (1.280933679173966, 0.08661905058576926),
}
# (epoch, train_loss, val_loss, is_best)
HISTORY = [
    (1, 54.12135495938239, 41.79082371292252, 1),
    (2, 36.10337343150034, 30.40852457656057, 1),
    (3, 26.93265397009221, 23.076965729516832, 1),
]
EVAL_NMSE = {"eval_direct.txt": 2.32118, "eval_composite.txt": 2.48448}
CHECKPOINTS = [
    "train.ckpt",
    "ck/crld_composite_snr+4dB_p2.ckpt",
    "ck/crld_composite_snr-4dB_p2.ckpt",
    "ck/crld_direct_snr+4dB_p2.ckpt",
    "ck/crld_direct_snr-4dB_p2.ckpt",
]


def _load_golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden()


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    outdir = tmp_path_factory.mktemp("golden")
    files = golden.run(str(ROOT), str(outdir))
    assert [f for f in files if f.endswith(".ckpt")] == CHECKPOINTS
    return outdir


def _sweep_lines(out: Path) -> list[str]:
    return (out / "sweep.csv").read_text().splitlines()


def test_dataset_bytes_are_unchanged(out):
    assert golden.sha256(str(out / "data.ambd")) == DATA_SHA256


def test_ls_and_mmse_rows_are_byte_identical(out):
    lines = _sweep_lines(out)
    assert lines[0] == "link,method,snr_db,p,nmse,ci_half_width,trials"
    assert [ln for ln in lines[1:] if ",crld," not in ln] == CLASSIC_ROWS


def test_reused_checkpoints_give_the_same_sweep_bytes(out):
    assert (out / "sweep_reuse.csv").read_bytes() == (out / "sweep.csv").read_bytes()


def test_crld_rows_within_tolerance(out):
    rows = [r for r in csv.DictReader(_sweep_lines(out)) if r["method"] == "crld"]
    assert {(r["link"], r["snr_db"]) for r in rows} == set(CRLD_ROWS)
    for r in rows:
        nmse, ci = CRLD_ROWS[(r["link"], r["snr_db"])]
        assert (r["p"], r["trials"]) == ("2", "1000")
        assert float(r["nmse"]) == pytest.approx(nmse, rel=REL)
        assert float(r["ci_half_width"]) == pytest.approx(ci, rel=REL)


def test_history_losses_within_tolerance_and_best_epoch_unchanged(out):
    rows = list(csv.DictReader((out / "history.csv").read_text().splitlines()))
    assert [(int(r["epoch"]), int(r["is_best"])) for r in rows] == [(e, b) for e, _, _, b in HISTORY]
    for r, (_, train_loss, val_loss, _) in zip(rows, HISTORY):
        assert float(r["train_loss"]) == pytest.approx(train_loss, rel=REL)
        assert float(r["val_loss"]) == pytest.approx(val_loss, rel=REL)


@pytest.mark.parametrize("name", sorted(EVAL_NMSE))
def test_eval_nmse_within_tolerance(out, name):
    match = re.search(r"\bnmse=(\S+)", (out / name).read_text())
    assert match, (out / name).read_text()
    assert float(match.group(1)) == pytest.approx(EVAL_NMSE[name], rel=REL)


@pytest.mark.parametrize("name", CHECKPOINTS)
def test_every_checkpoint_loads(out, name):
    model = load_checkpoint(out / name)
    assert (model.hyper.blocks, model.hyper.layers_per_block, model.hyper.filters) == (1, 2, 4)
