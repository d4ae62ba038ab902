"""The Python examples of README.md and PAPER.md run as written, so the
signatures they show stay those of the code."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_python_blocks(doc: Path):
    blocks = re.findall(r"```python\n(.*?)```", doc.read_text(encoding="utf-8"), re.S)
    assert blocks, f"{doc.name} has no Python example"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(doc), "exec"), namespace)


def test_readme_python_blocks_run():
    _run_python_blocks(ROOT / "README.md")


def test_paper_python_blocks_run():
    _run_python_blocks(ROOT / "PAPER.md")
