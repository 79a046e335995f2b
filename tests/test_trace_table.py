"""The benchmark tracer's table of wrapped names still resolves.

perfbench/tracer.py replaces the attributes it names at run time, so a
rename in ``wf`` would otherwise only show as an AttributeError inside a
traced benchmark run.  The tracer source is compiled from its path and
executed in a fresh namespace; nothing is written next to it.
"""

import importlib
from pathlib import Path

from wf.base_ring import BaseRingSpec
from wf.scheme import BUILTIN_SCHEMES

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    namespace = {"__name__": "perfbench_tracer", "__file__": str(TRACER)}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_traced_names_exist():
    tracer = load_tracer()
    for _, modname, clsname, attr in tracer["TRACED"]:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname)
        assert callable(getattr(owner, attr, None)), (modname, clsname, attr)
    for modname, table in tracer["CONSTRUCTOR_TABLES"]:
        assert getattr(importlib.import_module(modname), table)


def test_counter_hooks_resolve(monkeypatch):
    """The tracer counts gfp.rank by wrapping gfp.rref, so solve must reach
    rref through the module attribute; a solve that stopped calling it
    would leave the count at zero without an error."""
    gfp = importlib.import_module("wf.gfp")
    di = importlib.import_module("wf.di")
    assert callable(gfp.rref)
    assert di.gfp_solve is gfp.solve
    rref = gfp.rref
    ranks = []

    def counted_rref(p, rows, ncols):
        pivots = rref(p, rows, ncols)
        ranks.append(len(pivots))
        return pivots

    monkeypatch.setattr(gfp, "rref", counted_rref)
    assert gfp.solve(5, [[(0, 1), (1, 1)], [(1, 2)]], [1, 3], 2) == [2, 4]
    assert ranks == [2]


def test_gfp_solve_receives_sparse_pair_rows(monkeypatch):
    """The tracer counts a row's nonzeros as len(row) - row.count(0); that
    is exact when each row is a list of (column, value) pairs with
    distinct columns and values in [1, p)."""
    gfp = importlib.import_module("wf.gfp")
    di = importlib.import_module("wf.di")
    calls = []

    def recording_solve(p, rows, rhs, ncols):
        calls.append((p, rows, ncols))
        return gfp.solve(p, rows, rhs, ncols)

    monkeypatch.setattr(di, "gfp_solve", recording_solve)
    di.compute_di_class(BUILTIN_SCHEMES["genus2"](BaseRingSpec(3)))
    assert calls
    for p, rows, ncols in calls:
        assert p == 3
        for row in rows:
            assert isinstance(row, list)
            assert all(isinstance(e, tuple) and len(e) == 2 for e in row)
            cols = [c for c, _ in row]
            assert len(set(cols)) == len(cols)
            assert all(0 <= c < ncols for c in cols)
            assert all(1 <= v < p for _, v in row)
            assert len(row) - row.count(0) == len(row)
