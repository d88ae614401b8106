"""The README's Python examples run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_pass():
    """Each fenced ``python`` block is a doctest; later blocks see earlier names."""
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    report: list[str] = []
    globs: dict = {}
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    for block in blocks:
        line = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), globs, f"README.md:{line + 1}", str(README), line)
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs
    assert runner.failures == 0, "".join(report)
    assert runner.tries >= 10
