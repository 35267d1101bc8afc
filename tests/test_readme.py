"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    """Each ```python block of the README with the line it starts on."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    ]


def test_python_examples_run(tmp_path, monkeypatch, capsys):
    # The blocks run in order in one namespace, as a reader would run
    # them in one session, from an empty working directory.
    blocks = python_blocks()
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__readme__"}
    for line, source in blocks:
        # Padding keeps tracebacks on the README's own line numbers.
        code = compile("\n" * (line - 1) + source, str(README), "exec")
        exec(code, namespace)
