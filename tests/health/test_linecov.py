"""tools/linecov.py: the dependency-free line-coverage report."""

import importlib.util
import json
import os

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "tools", "linecov.py")


def _linecov():
    spec = importlib.util.spec_from_file_location("linecov", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_lists_each_files_missing_lines(tmp_path):
    linecov = _linecov()
    src = tmp_path / "pkg"
    src.mkdir()
    mod = src / "mod.py"
    mod.write_text("a = 1\nif a:\n    b = 2\nelse:\n    b = 3\n")
    executable = linecov.executable_lines(str(mod))
    assert {1, 2, 3, 5} <= executable
    covered = {str(mod): executable - {5}}
    out = tmp_path / "cov.json"
    percent = linecov.report(str(src) + os.sep, covered, 50.0, str(out),
                             echo=lambda line: None)
    doc = json.loads(out.read_text())
    (row,) = doc["files"]
    assert row["file"] == "mod.py"
    assert row["missing"] == [5]
    assert row["covered"] == len(executable) - 1
    assert row["executable"] == len(executable)
    assert doc["covered"] == row["covered"]
    assert percent == 100.0 * row["covered"] / row["executable"]
