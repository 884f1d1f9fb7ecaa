"""Every `rootcovers ...` line of README's "Command line" block exits 0."""

import re
import shlex
from pathlib import Path

from rootcovers import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in _command_lines():
        words = shlex.split(line, comments=True)
        if words[0] == "printf":  # printf '<text>' > <file>
            fmt, redirect, target = words[1:]
            assert redirect == ">"
            Path(target).write_text(fmt.replace("\\n", "\n"), encoding="utf-8")
            continue
        assert words[0] == "rootcovers", line
        code = cli.main(words[1:])
        capsys.readouterr()
        assert code == 0, line
        ran += 1
    assert ran
