"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs(capsys):
    section = README.read_text().split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, "README.md (Python API)", "exec"), scope)
    assert scope["logits"].shape == (2, 10)
    assert scope["n_sites"] == 2
    assert set(scope["velocity"]) == set(scope["model"].params)
    assert "stage2.block1.act_b" in capsys.readouterr().out
