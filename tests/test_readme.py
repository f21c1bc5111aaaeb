"""README's quick start runs as written, so a renamed or re-signatured API fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    ls, mmse = map(float, re.fullmatch(r"LS (\S+)  MMSE (\S+)\n", capsys.readouterr().out).groups())
    assert mmse < ls  # the comment in the block reads ~1.99 vs ~0.31
