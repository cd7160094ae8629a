"""The README's Python examples run as written and print what they say.

Each ```python block of README.md is executed on its own. A `print(...)`
line whose comment gives its output must print exactly that line, so an
example that names a deleted function or claims a stale result fails here.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_python_examples_run_and_print_what_they_claim():
    blocks = _blocks()
    assert blocks
    for block in blocks:
        claimed = [line.partition("# ")[2] for line in block.splitlines()
                   if line.startswith("print(") and "# " in line]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
        assert out.getvalue().splitlines() == claimed, block
