"""The README's Python API example runs as written, and its example config loads."""

import json
import re
from pathlib import Path

from actkit import ExperimentConfig, record_from_json, record_to_json

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs(capsys):
    section = README.read_text().split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, "README.md (Python API)", "exec"), scope)
    assert scope["logits"].shape == (2, 10)
    assert scope["n_sites"] == 2
    assert json.loads(scope["doc"])["preset"] == "mini-x3d"
    assert set(scope["velocity"]) == set(scope["model"].params)
    assert scope["tuned"].spec == scope["swapped"] and scope["stepped"].params is not scope["model"].params
    assert "stage2.block1.act_b" in capsys.readouterr().out


def test_config_block_round_trips():
    section = README.read_text().split("## Experiment configs", 1)[1]
    doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert record_to_json(record_from_json(ExperimentConfig, doc)) == doc
