"""README's library example runs as written, so an API change cannot leave
it stale."""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_library_block_runs_from_the_repository_root(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert block is not None, "README has no python block under ## Library"
    monkeypatch.chdir(ROOT)
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
