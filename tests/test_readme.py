"""The README's Library example prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_trailing_comments():
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)[1]
    expected = [line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
