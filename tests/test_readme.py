"""The README's Python and command-line examples run as written."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from scoreplay.cli import main

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


def readme_cli_examples():
    """(command line, expected stdout) for each ``$ scoreplay`` example in
    a ``console`` block whose output is shown in full."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```$", text, re.M | re.S):
        for example in block.strip("\n").split("\n\n"):
            command, *output = example.splitlines()
            assert command.startswith("$ scoreplay "), command
            shown = "\n".join(output) + "\n"
            if "..." in shown or "family.scan" in command:
                continue
            examples.append((command[len("$ scoreplay "):], shown))
    return examples


CLI_EXAMPLES = readme_cli_examples()


@pytest.mark.parametrize("command, shown", CLI_EXAMPLES, ids=[c.split()[0] for c, _ in CLI_EXAMPLES])
def test_readme_cli_examples_print_what_they_show(command, shown, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == shown
