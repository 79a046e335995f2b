"""List the executable lines of src/wf that the tier-1 tests never run.

Usage, from the repository root:

    python tools/unexecuted_lines.py [extra pytest arguments]

A generated sitecustomize.py on PYTHONPATH installs sys.settrace in every
interpreter that starts, the pytest process and the CLI subprocesses the
tests spawn alike, and each writes the (file, line) pairs it ran under
src/wf when it exits.  A line counts as executable when some code object
compiled from the file lists it in co_lines(); blank lines, comment
lines and the first line of each docstring are left out.  The tool
prints `file:line source` for every executable line no interpreter ran,
then the total.

Tracing slows the tests several-fold, so a timed test may fail under it;
pytest's exit status is reported and the list is printed anyway.  Stdlib
only.
"""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wf"

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PREFIX = %(prefix)r
_OUT = %(out)r
_hits = set()


def _local(frame, event, arg):
    _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, "%%d.txt" %% os.getpid())
    with open(path, "a") as fh:
        for name, line in _hits:
            fh.write("%%s\\t%%d\\n" %% (name, line))


atexit.register(_dump)
sys.settrace(_global)
threading.settrace(_global)
'''


def executable_lines(path):
    """Line numbers that some code object compiled from path runs."""
    source = path.read_text()
    lines = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            docstrings.add(node.body[0].lineno)
    text = source.splitlines()
    return {n for n in lines
            if n not in docstrings and n <= len(text)
            and text[n - 1].strip() and not text[n - 1].strip().startswith("#")}


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        site = pathlib.Path(tmp, "site")
        out = pathlib.Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE % {"prefix": str(SRC) + os.sep, "out": str(out)})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(site), str(ROOT / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *argv],
            cwd=ROOT, env=env).returncode
        hits = set()
        for dump in out.iterdir():
            for row in dump.read_text().splitlines():
                name, line = row.split("\t")
                hits.add((name, int(line)))
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for n in sorted(executable_lines(path)):
            if (str(path), n) not in hits:
                total += 1
                print("%s:%d %s" % (path.relative_to(ROOT), n, text[n - 1].strip()))
    print("%d unexecuted lines in src/wf (pytest exit status %d)" % (total, status))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
