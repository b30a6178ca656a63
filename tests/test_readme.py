"""The README's usage example runs as written."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_examples(text: str):
    """The indented code blocks of ``text`` that start with an import of
    the package, each dedented."""
    blocks = re.findall(r"(?:^(?: {4}.*)?\n)+", text, flags=re.MULTILINE)
    examples = []
    for block in blocks:
        code = "\n".join(line[4:] for line in block.splitlines()).strip()
        if code.startswith(("from owasdp", "import owasdp")):
            examples.append(code + "\n")
    return examples


def test_readme_example_solves_and_brackets_its_value():
    (example,) = python_examples(README.read_text(encoding="utf-8"))
    namespace = {"__name__": "readme_example"}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(example, str(README), "exec"), namespace)
    result, solution = namespace["result"], namespace["solution"]
    assert result.status.solved()
    assert result.objective <= solution.certified_value
    assert printed.getvalue().startswith(result.status.value)
