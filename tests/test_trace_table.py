"""The benchmark tracer's table of wrapped names still resolves.

perfbench/tracer.py replaces the attributes it names at run time, so a
rename in ``wf`` would otherwise only show as an AttributeError inside a
traced benchmark run.  The tracer source is compiled from its path and
executed in a fresh namespace; nothing is written next to it.
"""

import importlib
from pathlib import Path

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


def test_counter_hooks_resolve():
    gfp = importlib.import_module("wf.gfp")
    di = importlib.import_module("wf.di")
    assert callable(gfp.rref)
    assert di.gfp_solve is gfp.solve
