#!/usr/bin/env python3
"""Digest what a list of CLI calls prints, to show that a change keeps it.

Reads one call per line from a file: the arguments after `gx1cycles`, in
shell syntax, with `#` starting a comment and blank lines skipped.  Runs
each call in process through click's CliRunner, from the current
directory, and prints one line per call:

    <exit code> <sha256 of stdout> <argv>

Run it from the root of two checkouts and diff the two outputs:

    PYTHONPATH=src python3 tools/cli_digests.py tools/cli_calls.txt
"""

import hashlib
import shlex
import sys

from click.testing import CliRunner

from gx1cycles.cli import main as cli_main


def read_calls(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [argv for line in fh if (argv := shlex.split(line, comments=True))]


def digest_line(runner: CliRunner, argv: list[str]) -> str:
    result = runner.invoke(cli_main, argv, prog_name="gx1cycles")
    digest = hashlib.sha256(result.stdout_bytes).hexdigest()
    return f"{result.exit_code} {digest} {shlex.join(argv)}"


def main(paths) -> int:
    if len(paths) != 1:
        print("usage: cli_digests.py CALLS_FILE", file=sys.stderr)
        return 2
    runner = CliRunner()
    for argv in read_calls(paths[0]):
        print(digest_line(runner, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
