"""The README's examples run as written from the repository root."""

import re
import shlex
from pathlib import Path

from basketminer import cli

ROOT = Path(__file__).resolve().parent.parent


def readme_text() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run(capsys, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", readme_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == (
        "('Rice',) ('Pulses',) 3/7 1\n"
        "('Wheat',) ('Pulses',) 4/7 4/5\n")


def test_quick_start_output_is_what_the_command_prints(capsys, monkeypatch):
    section = readme_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    command = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    shown = re.search(r"^```text\n(.*?)^```", section, re.M | re.S).group(1)
    argv = shlex.split(command.replace("\\\n", ""))  # join continued lines
    assert argv[:2] == ["basketminer", "mine"]
    monkeypatch.chdir(ROOT)
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().out == shown
