"""The tools under tools/: code_lines.py (the code-line count quoted in CHANGES.md)
and cli_digests.py (exit codes and stdout digests of CLI calls), and the
digests of tools/cli_calls.txt pinned in tools/cli_digests.expected."""

import hashlib
import importlib.util
import re
from pathlib import Path

from click.testing import CliRunner

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
cli_digests = _load("cli_digests")


def test_counts_only_lines_of_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Module docstring,\n\nover three lines."""\n'
                    "\n"
                    "# a comment\n"
                    "def f(x):\n"
                    '    """Function docstring."""\n'
                    "    y = x + 1\n"
                    "    return y\n")
    assert code_lines.code_lines(path) == 3


def test_cli_digests_prints_exit_digest_and_argv(tmp_path, capsys):
    calls = tmp_path / "calls.txt"
    calls.write_text("# a comment line\n"
                     "\n"
                     "lambda --family collatz --counts 31,22   # a trailing comment\n"
                     "search --family nope --lo 1 --hi 2\n"
                     "lambda --family collatz --counts '31 22'\n"
                     "lambda --family collatz --counts 31,22\n")
    assert cli_digests.main([str(calls)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    fields = [line.split(" ", 2) for line in lines]
    assert [f[2] for f in fields] == ["lambda --family collatz --counts 31,22",
                                      "search --family nope --lo 1 --hi 2",
                                      "lambda --family collatz --counts '31 22'",
                                      "lambda --family collatz --counts 31,22"]
    assert [f[0] for f in fields] == ["0", "2", "0", "0"]
    assert all(re.fullmatch("[0-9a-f]{64}", f[1]) for f in fields)
    # a repeated call gives the same digest; a usage error prints nothing on stdout
    assert lines[0] == lines[3]
    assert fields[1][1] == hashlib.sha256(b"").hexdigest()


def test_cli_outputs_match_the_pinned_digests(monkeypatch):
    # regenerate the pin with, from the repository root:
    #   PYTHONPATH=src python3 tools/cli_digests.py tools/cli_calls.txt > tools/cli_digests.expected
    monkeypatch.chdir(_TOOLS.parent)        # the calls name paths from the root
    calls = cli_digests.read_calls(_TOOLS / "cli_calls.txt")
    expected = (_TOOLS / "cli_digests.expected").read_text(encoding="utf-8").splitlines()
    assert len(expected) == len(calls), "cli_digests.expected is not for cli_calls.txt"
    runner = CliRunner()
    changed = [want.split(" ", 2)[2] for argv, want in zip(calls, expected)
               if cli_digests.digest_line(runner, argv) != want]
    assert not changed, "output changed for: " + "; ".join(changed)
