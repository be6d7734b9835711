import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a multi-line
string that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    value = 1
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the two string lines, the two return lines, class, value
    assert load_tool().count_file(path) == 8


def test_main_prints_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text('"""doc"""\nz = 3\n')
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\n"
