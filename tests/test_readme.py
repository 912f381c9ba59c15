"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    noise = np.random.default_rng(10).standard_normal((201, 6)) * [1.0, 0.8, 0.6, 0.4, 0.3, 0.2]
    np.savetxt(tmp_path / "curves.csv", noise[1:] + 0.5 * noise[:-1], delimiter=",")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert len(capsys.readouterr().out.split()) == 3  # eigenvalue and interval
