"""The benchmark's correctness gate, run on its curves ops and one corpus op,
and the values of its witt rounds at seed 0 pinned.

perfbench/workloads.py pins each op's exit code and report sha256 and
judges the report against oracles that do not use ``wf``.  Its source is
compiled from its path and executed in a fresh namespace, so nothing is
written next to it; every op is one in-process ``wf.cli.main`` call.
"""

import hashlib
from pathlib import Path

import pytest

import wf.base_ring
import wf.cli
import wf.witt

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


# sha256 of repr((a + b, (a + b).f, a * b, (a * b).f)), one line per
# triple of witt_rounds(0, ...), recorded before the e = 2 closed-form
# sum and product: the benchmark's witt gate checks identities and
# digest repeats, not values
WITT_ROUNDS_SHA256 = "640e4e34c0553e79d43fcf30dca3996fa69ed7e84935dfba2f49d59bea9f9126"


def test_witt_rounds_values_are_pinned():
    lines = []
    for rnd in BENCH["witt_rounds"](0, wf.base_ring, wf.witt):
        for _ctx, _zero, _one, a, b, _c in rnd.triples:
            s, m = a + b, a * b
            lines.append(repr((s, s.f, m, m.f)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WITT_ROUNDS_SHA256
