"""scripts/loc.py: total and code-only line counts of the package's modules."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ambcest"


def _load_loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "scripts" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loc = _load_loc()

# 16 lines; code only on lines 4, 8, 10-12, 14 and 16
SNIPPET = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """Function docstring."""
    s = """a string that is not a docstring
spans two lines"""
    return x + len(s)

class C:
    """Class docstring."""
    y = 1
'''


def test_hand_counted_snippet():
    assert loc.count(SNIPPET) == (16, 7)


def test_package_totals_are_the_sum_of_the_modules(capsys):
    assert loc.main([str(PACKAGE)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    modules, (name, total, code) = rows[:-1], rows[-1]
    assert name == "package" and len(modules) == len(list(PACKAGE.glob("*.py")))
    for module, module_total, module_code in modules:
        assert int(module_total) == len((PACKAGE / module).read_text().splitlines())
        assert 0 < int(module_code) <= int(module_total)
    assert int(total) == sum(int(row[1]) for row in modules)
    assert int(code) == sum(int(row[2]) for row in modules)
