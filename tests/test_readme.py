"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from fcmerge.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library", "exec"), {})


def test_shell_transcript_runs(tmp_path, monkeypatch, capsys):
    # each "$ cat" writes the lines under it to its file; each "$ fcmerge"
    # runs through cli.run and must print exactly the lines under it
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(\$ cat .*?)```", text, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    commands = re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", block, re.MULTILINE)
    assert [command.split()[0] for command, _ in commands] == ["cat", "cat", "fcmerge", "fcmerge"]
    for command, output in commands:
        program, *args = shlex.split(command)
        if program == "cat":
            Path(args[0]).write_text(output, encoding="utf-8")
        else:
            assert run(args) == 0
            assert capsys.readouterr().out == output, command
