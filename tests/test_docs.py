"""The public API and the README stay in step."""

import re
from pathlib import Path

import catamp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in catamp.__all__ if not hasattr(catamp, name)]
    assert not missing


def test_readme_python_quickstart_runs():
    text = README.read_text()
    section = text.split("## Python quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    exec(compile(block.group(1), "README quickstart", "exec"), {})
