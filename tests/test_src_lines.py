"""``tools/src_lines.py``: total and code lines of each source module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Shape:
    """One-line class docstring."""

    SIDES = """a string that is not a docstring
    counts as code"""

    def area(self):
        """Method
        docstring."""
        return math.pi


async def fetch():
    "A plain-quoted docstring."
    x = 1
    "a bare string after the first statement is code"
    return x
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_synthetic_module():
    # code: the import, the class line, SIDES over two lines, def, return,
    # async def, the assignment, the bare string and the return
    assert load_tool().count_lines(MODULE) == (25, 10)


def test_prints_each_module_and_a_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "sub" / "b.py").write_text("x = 1\n\n")
    assert load_tool().main([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["25", "10", str(package / "a.py")],
        ["2", "1", str(package / "sub" / "b.py")],
        ["27", "11", "total"],
    ]
