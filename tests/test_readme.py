"""The README's library example runs as written and prints what it documents."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("DG error: ")
    assert out[1:] == ["(20, 1)", "(5,)"]
