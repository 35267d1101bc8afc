"""The README's Python examples and command lines run against the package as it is."""

import re
import shlex
from pathlib import Path

from sslsq.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    """Each ```python block of the README with the line it starts on."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    ]


def command_lines():
    """The ``sslsq`` commands of the "Command line" section's ```sh block,
    each with its ``\\`` continuations joined."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Command line\n"):]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            commands.append(shlex.split(line))
    return commands


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


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    # The block runs in order from an empty working directory that holds
    # only the fully labeled files it reads but does not write.
    commands = command_lines()
    assert commands and all(argv[0] == "sslsq" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for name, seed, per_class in (("a.csv", 1, 20), ("b.csv", 2, 20), ("pool.csv", 3, 30)):
        assert main(["generate", "--kind", "two-gaussian-2d", "--seed", str(seed),
                     "--labeled-per-class", str(per_class), "--unlabeled", "0",
                     "--out", name]) == 0
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
