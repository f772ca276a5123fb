"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

BLOCKS = re.findall(r"^```python\n(.*?)^```", (Path(__file__).parents[1] / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, capsys):
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
    if "is_empty(corner)" in code:
        assert capsys.readouterr().out.splitlines()[-1] == "False"
