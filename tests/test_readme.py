"""The README's Python examples run as written, so the signatures they show
stay those of the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no Python example"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
