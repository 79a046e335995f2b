"""The benchmark's correctness gate, run on its curves ops and one corpus op.

perfbench/workloads.py pins each op's exit code and report sha256 and
judges the report against oracles that do not use ``wf``.  Its source is
compiled from its path and executed in a fresh namespace, so nothing is
written next to it; every op is one in-process ``wf.cli.main`` call.
"""

from pathlib import Path

import pytest

import wf.cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    namespace = {"__name__": "perfbench_workloads", "__file__": str(WORKLOADS)}
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), namespace)
    return namespace


BENCH = load_workloads()
OPS = list(BENCH["CURVES_OPS"]) + [("corpus", "--seed", "0")]


@pytest.mark.parametrize("argv", OPS, ids=[" ".join(op) for op in OPS])
def test_op_matches_its_pin_and_oracle(argv, monkeypatch):
    monkeypatch.setenv("WF_THREADS", "1")
    op = BENCH["CliOp"](argv, BENCH["load_pins"]())
    assert op.pin is not None, op.name
    outcome = op.judge(op.run(wf.cli))
    assert outcome.passed, (op.name, outcome.status, outcome.detail)
