"""Every `rootcovers ...` line of README's "Command line" block exits 0, and
every budget and exit code README quotes equals the constant in the code."""

import re
import shlex
from pathlib import Path

from rootcovers import arrangements, cli, covers, numth, partitions

README = Path(__file__).resolve().parent.parent / "README.md"
_MODULES = {m.__name__.split(".")[-1]: m for m in (numth, arrangements, partitions, covers)}


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


def test_readme_budgets_match_the_code():
    # `MAX_NAME` = N or `module.MAX_NAME` = N, the value maybe on the next line
    text = README.read_text(encoding="utf-8")
    found = re.findall(r"`(?:(\w+)\.)?(MAX_\w+)` =\s+([\d,]+)", text)
    assert len(found) >= 6
    for module, name, value in found:
        if module:
            owners = [_MODULES[module]]
        else:
            owners = [m for m in _MODULES.values() if name in vars(m)]
        assert owners, name
        for owner in owners:
            assert getattr(owner, name) == int(value.replace(",", "")), name


def test_readme_exit_codes_match_the_code():
    # "- N <meaning>" under "Exit codes:", one item per cli.EXIT_* constant;
    # EXIT_TABLE_MISMATCH must be described with "table mismatch", and so on
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Exit codes:\n\n((?:- .*\n(?:  .*\n)*)+)", text).group(1)
    listed = {int(code): meaning for code, meaning in re.findall(r"^- (\d+) (.*)$", block, re.M)}
    codes = {
        value: name.removeprefix("EXIT_").lower().replace("_", " ")
        for name, value in vars(cli).items()
        if name.startswith("EXIT_")
    }
    assert sorted(listed) == sorted(codes)
    for value, words in codes.items():
        assert words in listed[value].lower(), (value, listed[value])
