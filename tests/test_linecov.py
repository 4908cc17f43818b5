"""The report of tools/linecov.py on a toy module."""

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "linecov", Path(__file__).resolve().parents[1] / "tools" / "linecov.py")
linecov = sys.modules["linecov"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

TOY = '''"""A toy module."""


def sign(x):
    if x < 0:
        return -1
    return 1


def unused(
    x,
):
    return [x,
            x]
'''


def test_report_lists_the_lines_that_never_ran(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    previous = sys.gettrace()
    with linecov.tracing(tmp_path) as ran:
        spec = importlib.util.spec_from_file_location("toy", path)
        toy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(toy)
        assert toy.sign(2) == 1
    assert sys.gettrace() is previous
    # the def lines ran at import; a call spanning lines reports each line
    missed = [(6, "return -1"), (13, "return [x,"), (14, "x]")]
    assert linecov.never_ran(tmp_path, ran) == [f"{tmp_path.name}/toy.py:{i}: {text}"
                                                for i, text in missed]
    assert linecov.executable_lines(path) == {1, 4, 5, 6, 7, 10, 13, 14}
