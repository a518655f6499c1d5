"""tools/code_lines.py, the code-line count quoted in CHANGES.md."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


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
