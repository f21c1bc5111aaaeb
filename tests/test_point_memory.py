"""scripts/point_memory.py: the tracemalloc peaks of the Monte-Carlo paths."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_point_memory():
    spec = importlib.util.spec_from_file_location("point_memory", ROOT / "scripts" / "point_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


point_memory = _load_point_memory()

NAMES = ["simulate_batch", "nmse", "sweep point ls+mmse direct", "sweep point ls+mmse composite",
         "sweep-classic plan run_sweep", "evaluate default net", "load_checkpoint default net"]


def test_prints_one_peak_per_path(capsys):
    assert point_memory.main(["300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trials=300"
    assert [line[:32].rstrip() for line in lines[1:]] == NAMES
    for line in lines[1:]:
        value, unit = line[32:].split()
        assert unit == "MiB" and float(value) > 0

