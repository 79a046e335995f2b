"""Let the CLI subprocesses the tests spawn import the in-tree package.

pytest's ``pythonpath`` setting (pyproject.toml) only reaches the test
process itself; child interpreters read ``PYTHONPATH``.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
