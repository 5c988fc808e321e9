#!/usr/bin/env python
"""Dependency-free line coverage with a floor.

Runs pytest in-process under ``sys.settrace`` and measures which lines
of ``src/repro`` executed, against the executable-line set read from
each module's compiled code objects (``co_lines``).  No third-party
coverage package is needed, so the number means the same thing in CI
and in a bare container.

Usage:
    PYTHONPATH=src python tools/linecov.py --fail-under 80 \
        [--report COVERAGE.json] [pytest args]

The JSON report lists, per file, the covered and executable line counts
and the executable lines that never ran (``missing``).

Exit status: pytest's own status if the suite fails, 2 if the suite
passes but total coverage is below the floor, else 0.
"""

import argparse
import json
import os
import sys
import threading
from collections import defaultdict


def executable_lines(path):
    """Line numbers the compiler put in ``path``'s line tables."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        top = compile(source, path, "exec")
    except SyntaxError:
        return set()
    lines = set()
    stack = [top]
    while stack:
        code = stack.pop()
        for _start, _end, line in code.co_lines():
            if line is not None:
                lines.add(line)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


def install_tracer(src_root):
    """Line-trace frames whose code lives under ``src_root`` only.

    The global trace function returns None for foreign frames, so
    pytest internals and the stdlib pay a call-event check and nothing
    more; only simulator frames carry per-line overhead.
    """
    covered = defaultdict(set)
    in_src = {}

    def local_trace(frame, event, _arg):
        if event == "line":
            covered[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, _event, _arg):
        filename = frame.f_code.co_filename
        hit = in_src.get(filename)
        if hit is None:
            hit = in_src[filename] = os.path.abspath(
                filename).startswith(src_root)
        if not hit:
            return None
        covered[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    return covered


def report(src_root, covered, fail_under, report_path, echo=print):
    covered_abs = defaultdict(set)
    for filename, lines in covered.items():
        covered_abs[os.path.abspath(filename)] |= lines

    rows = []
    total_executable = total_covered = 0
    for dirpath, _dirs, files in os.walk(src_root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            lines = executable_lines(path)
            if not lines:
                continue
            missing = sorted(lines - covered_abs.get(path, set()))
            hit = len(lines) - len(missing)
            total_executable += len(lines)
            total_covered += hit
            rows.append((os.path.relpath(path, src_root),
                         hit, len(lines), missing))

    percent = 100.0 * total_covered / total_executable \
        if total_executable else 0.0
    rows.sort(key=lambda row: row[1] / row[2])
    echo("%-42s %9s %7s" % ("least-covered files", "lines", "cover"))
    for rel, hit, executable, _missing in rows[:10]:
        echo("%-42s %4d/%-4d %6.1f%%"
             % (rel, hit, executable, 100.0 * hit / executable))
    echo("TOTAL %d/%d executable lines covered: %.1f%% (floor %.1f%%)"
         % (total_covered, total_executable, percent, fail_under))

    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump({
                "percent": round(percent, 2),
                "covered": total_covered,
                "executable": total_executable,
                "fail_under": fail_under,
                "files": [
                    {"file": rel, "covered": hit, "executable": executable,
                     "missing": missing}
                    for rel, hit, executable, missing in sorted(rows)
                ],
            }, handle, indent=1)
    return percent


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python tools/linecov.py",
        description="line coverage of src/repro with a hard floor")
    parser.add_argument("--fail-under", type=float, default=0.0,
                        help="minimum total coverage percent")
    parser.add_argument("--src", default=None,
                        help="source root (default: src/repro next to "
                             "this script)")
    parser.add_argument("--report", default=None,
                        help="write a JSON report here")
    # Everything else goes to pytest, in its original order (a flag
    # with a value, such as ``-p no:cacheprovider``, must stay a pair).
    args, pytest_args = parser.parse_known_args(argv)

    src_root = args.src or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "repro")
    src_root = os.path.abspath(src_root) + os.sep

    covered = install_tracer(src_root)
    try:
        import pytest
        status = pytest.main(pytest_args or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    percent = report(src_root, covered, args.fail_under, args.report)
    if status:
        return int(status)
    if percent < args.fail_under:
        print("coverage %.1f%% is below the floor of %.1f%%"
              % (percent, args.fail_under))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
