#!/usr/bin/env python3
"""List the lines of src/shapeflow that neither the digest run nor tier-1 executes.

Two child processes run under one line tracer (``sys.settrace`` and
``threading.settrace``) that follows only files under ``src/shapeflow``:
first ``scripts/output_digests.py``, then the tier-1 suite
(``pytest -q --continue-on-collection-errors``).  A line is executable when
a code object compiled from its file lists it (``co_lines``); a function's
own first line is left out, since its ``def`` runs in the enclosing code.
The script prints, by file, every executable line that neither run
reached, and exits 0:

    python3 scripts/line_reach.py

Code that a test runs only in a grandchild process, such as
``__main__.py``, is listed as well.  The two runs take about 60-90 s on a
2-core machine.
"""

import json
import os
import subprocess
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "shapeflow")

# argv: package dir, record path, then "script <path>" or "pytest <args...>"
TRACED_RUN = """
import json, os, runpy, sys, threading
package, record, mode, *rest = sys.argv[1:]
package = os.path.realpath(package) + os.sep
ours, reached = {}, set()

def local(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return local

def trace(frame, event, arg):
    name = frame.f_code.co_filename
    inside = ours.get(name)
    if inside is None:
        inside = ours[name] = os.path.realpath(name).startswith(package)
    return local if inside else None

sys.settrace(trace)
threading.settrace(trace)
code = 0
try:
    if mode == "script":
        sys.argv = rest
        runpy.run_path(rest[0], run_name="__main__")
    else:
        import pytest
        code = int(pytest.main(rest))
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
finally:
    sys.settrace(None)
    threading.settrace(None)
    with open(record, "w") as fh:
        json.dump(sorted((os.path.realpath(f), n) for f, n in reached if ours.get(f)), fh)
sys.exit(code)
"""


def executable_lines(path):
    """The line numbers a code object compiled from ``path`` lists, less each
    function's first line and a module's line 0."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        first = code.co_firstlineno if code.co_name != "<module>" else None
        lines.update(n for _, _, n in code.co_lines() if n and n != first)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(record, *argv):
    """Run ``TRACED_RUN`` with ``argv`` in a child; its exit code and the
    (real path, line) pairs it reached."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, PACKAGE, record, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        text=True,
    )
    with open(record) as fh:
        return proc.returncode, proc.stdout, {(f, n) for f, n in json.load(fh)}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        digest_code, _, digest = traced(
            os.path.join(tmp, "digest.json"), "script", os.path.join(ROOT, "scripts", "output_digests.py"))
        tests_code, out, tests = traced(
            os.path.join(tmp, "tests.json"), "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
    summary = out.strip().splitlines()[-1:] or ["no pytest output"]
    print(f"digest run exit {digest_code}; tier-1 exit {tests_code}: {summary[0]}", file=sys.stderr)
    reached = digest | tests
    total = 0
    for root, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.realpath(os.path.join(root, name))
            missed = sorted(n for n in executable_lines(path) if (path, n) not in reached)
            if missed:
                total += len(missed)
                print(f"{os.path.relpath(path, PACKAGE)}: {', '.join(map(str, missed))}")
    print(f"{total} executable lines reached by neither run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
