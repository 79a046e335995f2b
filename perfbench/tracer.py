"""Spans around the calls into each ``wf`` module, installed at run time.

Nothing in ``src/wf`` knows about tracing.  ``install`` replaces module
and class attributes with wrappers that open a span, call the original
and close the span; ``Patcher.restore`` puts the originals back.  A
function imported by name into another module (``wf.di.gfp_solve`` is
``wf.gfp.solve``) is replaced in every ``wf`` module that holds it, so a
caller that looks it up in its own namespace is traced too.

A span records its name, start, end, parent span and op id.  Spans stay
in memory and are written out once, when the run ends.  Self time is a
span's duration minus the durations of its child spans; the process is
single-threaded, so children never overlap and no layer waits.
"""

import functools
import gzip
import sys
import time
from array import array

SPAN_NAMES = (
    "witt.op", "poly.nf", "poly.mul", "poly.pow", "poly.subst",
    "delta.prolong", "jet.linearize", "scheme.build", "scheme.transport",
    "scheme.fder_apply", "di.lift", "di.coboundary", "di.compat_build",
    "di.check", "di.solve", "gfp.solve", "cli.main",
)

# (span name, module, class or None, attribute)
TRACED = (
    ("witt.op", "wf.witt", "WittVec", "__add__"),
    ("witt.op", "wf.witt", "WittVec", "__neg__"),
    ("witt.op", "wf.witt", "WittVec", "__mul__"),
    ("poly.nf", "wf.poly", "ReductionContext", "normal_form"),
    ("poly.mul", "wf.poly", "MvPoly", "__mul__"),
    ("poly.mul", "wf.poly", "MvPoly", "__rmul__"),
    ("poly.pow", "wf.poly", "MvPoly", "__pow__"),
    ("poly.subst", "wf.poly", "MvPoly", "subst"),
    ("delta.prolong", "wf.delta", "DeltaContext", "prolong"),
    ("jet.linearize", "wf.jet", None, "linearize_generator"),
    ("jet.linearize", "wf.jet", None, "linearize_mod_pi"),
    ("jet.linearize", "wf.jet", None, "collapse_companion_jets"),
    ("scheme.transport", "wf.scheme", None, "transport"),
    ("scheme.fder_apply", "wf.scheme", None, "fder_apply"),
    ("di.lift", "wf.di", None, "local_frobenius_lift"),
    ("di.coboundary", "wf.di", None, "is_coboundary"),
    ("di.compat_build", "wf.di", None, "build_compatible_lifts"),
    ("di.check", "wf.di", "LocalLift", "verify"),
    ("di.check", "wf.di", None, "di_cocycle"),
    ("di.check", "wf.di", None, "coboundary_of"),
    ("di.check", "wf.di", None, "compatibility_check"),
    ("di.solve", "wf.di", "LinearSystem", "solve"),
    ("gfp.solve", "wf.gfp", None, "solve"),
    ("cli.main", "wf.cli", None, "main"),
)

# builtin constructor tables, each entry traced as scheme.build
CONSTRUCTOR_TABLES = (("wf.scheme", "BUILTIN_SCHEMES"), ("wf.scheme", "BUILTIN_MORPHISMS"))

# spans kept for writing out; the aggregates count every span regardless
LOG_CAP = 250_000

COUNTERS = (
    "base_ring.elems", "base_ring.elems_in_witt", "poly.nf.terms_in",
    "poly.nf.terms_out", "delta.prolong.terms_out", "di.solve.useful",
    "di.system.rows", "di.system.cols", "di.system.nnz", "gfp.cells",
    "gfp.nnz", "gfp.rank", "cli.report_bytes",
)


class Tracer:
    """Span log plus per-pass aggregates: calls, self time, inclusive
    time of outermost spans of a name, and the longest single span."""

    def __init__(self, names=SPAN_NAMES, clock=time.perf_counter):
        self.clock = clock
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.op_id = -1
        self.stack = []
        self.log_parent = array("q")
        self.log_op = array("q")
        self.log_name = array("H")
        self.log_start = array("d")
        self.log_end = array("d")
        self.log_self = array("d")
        self.dropped = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.reset()

    def reset(self):
        """Zero the aggregates; the span log is kept."""
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.max_s = [0.0] * n
        self.depth = [0] * n
        for key in self.counts:  # in place: the counter hooks hold this dict
            self.counts[key] = 0

    def enter(self, nid):
        sid = len(self.log_name)
        stack = self.stack
        if sid < LOG_CAP:
            self.log_parent.append(stack[-1][0] if stack else -1)
            self.log_op.append(self.op_id)
            self.log_name.append(nid)
            self.log_start.append(0.0)
            self.log_end.append(0.0)
            self.log_self.append(0.0)
        else:
            sid = -1
            self.dropped += 1
        self.depth[nid] += 1
        frame = [sid, nid, 0.0, 0.0]
        stack.append(frame)
        frame[2] = self.clock()
        return frame

    def exit(self, frame):
        t1 = self.clock()
        sid, nid, t0, child = frame
        dur = t1 - t0
        own = dur - child
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:  # frames above were cut off by the op limit
            del stack[stack.index(frame):]
        else:
            return
        if stack:
            stack[-1][3] += dur
        self.depth[nid] -= 1
        self.calls[nid] += 1
        self.self_s[nid] += own
        if not self.depth[nid]:
            self.incl_s[nid] += dur
        if dur > self.max_s[nid]:
            self.max_s[nid] = dur
        if sid >= 0:
            self.log_start[sid] = t0
            self.log_end[sid] = t1
            self.log_self[sid] = own

    def untimed(self, t0):
        """Charge the bookkeeping since t0 to no span."""
        if self.stack:
            self.stack[-1][3] += self.clock() - t0

    def begin_op(self, op_id):
        self.op_id = op_id
        self.stack.clear()
        self.depth = [0] * len(self.names)

    def span_count(self):
        return len(self.log_name) + self.dropped

    def write(self, path):
        """All spans as gzip'd TSV; times in microseconds of perf_counter,
        names as indices into the table on the first line."""
        with gzip.open(path, "wt", compresslevel=6) as fh:
            fh.write("# names: %s\n" % " ".join(
                "%d=%s" % (i, n) for i, n in enumerate(self.names)))
            fh.write("# spans past the first %d not logged: %d\n" % (LOG_CAP, self.dropped))
            fh.write("id\tparent\top\tname\tstart_us\tend_us\tself_us\n")
            for i in range(len(self.log_name)):
                fh.write("%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\n" % (
                    i, self.log_parent[i], self.log_op[i], self.log_name[i],
                    self.log_start[i] * 1e6, self.log_end[i] * 1e6,
                    self.log_self[i] * 1e6))

    def layer_metrics(self):
        """Per-layer metrics of everything traced since the last reset."""
        ix = self.index
        calls, self_s, incl_s, c = self.calls, self.self_s, self.incl_s, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        witt_ops = calls[ix["witt.op"]]
        solves = calls[ix["di.solve"]]
        nf = ix["poly.nf"]
        return {
            "base_ring.elems": c["base_ring.elems"],
            "base_ring.elems_per_witt_op": ratio(c["base_ring.elems_in_witt"], witt_ops),
            "witt.ops": witt_ops,
            "witt.op_s": incl_s[ix["witt.op"]],
            "poly.nf.calls": calls[nf],
            "poly.nf_s": self_s[nf],
            "poly.nf.terms_in": c["poly.nf.terms_in"],
            "poly.nf.terms_out": c["poly.nf.terms_out"],
            "poly.nf.max_call_s": self.max_s[nf],
            "poly.mul.calls": calls[ix["poly.mul"]],
            "poly.mul_s": self_s[ix["poly.mul"]],
            "poly.pow.calls": calls[ix["poly.pow"]],
            "poly.pow_s": self_s[ix["poly.pow"]],
            "poly.subst.calls": calls[ix["poly.subst"]],
            "poly.subst_s": self_s[ix["poly.subst"]],
            "delta.prolong.calls": calls[ix["delta.prolong"]],
            "delta.prolong_s": incl_s[ix["delta.prolong"]],
            "delta.prolong.terms_out": c["delta.prolong.terms_out"],
            "jet.linearize.calls": calls[ix["jet.linearize"]],
            "jet.linearize_s": self_s[ix["jet.linearize"]],
            "scheme.build_s": incl_s[ix["scheme.build"]],
            "scheme.transport.calls": calls[ix["scheme.transport"]],
            "scheme.transport_s": self_s[ix["scheme.transport"]],
            "scheme.fder_apply_s": incl_s[ix["scheme.fder_apply"]],
            "di.lift_s": self_s[ix["di.lift"]],
            "di.coboundary_s": self_s[ix["di.coboundary"]],
            "di.compat_build_s": self_s[ix["di.compat_build"]],
            "di.checks_s": incl_s[ix["di.check"]],
            "di.solves": solves,
            "di.solve.useful_ratio": ratio(c["di.solve.useful"], solves),
            "di.system.rows": c["di.system.rows"],
            "di.system.cols": c["di.system.cols"],
            "di.system.nnz": c["di.system.nnz"],
            "di.densify_s": self_s[ix["di.solve"]],
            "gfp.solve_s": incl_s[ix["gfp.solve"]],
            "gfp.cells": c["gfp.cells"],
            "gfp.density": ratio(c["gfp.nnz"], c["gfp.cells"]),
            "gfp.rank": c["gfp.rank"],
            "cli.self_s": self_s[ix["cli.main"]],
            "cli.report_bytes": c["cli.report_bytes"],
        }


def traced(tracer, name, fn, before=None, after=None):
    """fn inside a span; before(args) and after(args, result) update
    counters outside it, and their cost is charged to no span."""
    nid = tracer.index[name]
    enter, exit, clock, untimed = tracer.enter, tracer.exit, tracer.clock, tracer.untimed

    if before is None and after is None:  # the hot calls: keep the wrapper lean
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit(frame)
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            t0 = clock()
            before(args)
            untimed(t0)
        frame = enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit(frame)
        if after is not None:
            t0 = clock()
            after(args, result)
            untimed(t0)
        return result
    return wrapper


class Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, table, key, value):
        self.undo.append((table, key, table[key]))
        table[key] = value

    def replace_everywhere(self, original, wrapper):
        """Rebind every ``wf`` module global that holds original."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "wf" or modname.startswith("wf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def restore(self):
        while self.undo:
            owner, key, value = self.undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def _hooks(tracer):
    c = tracer.counts

    def nf_before(args):
        c["poly.nf.terms_in"] += len(args[1].terms)

    def nf_after(args, result):
        c["poly.nf.terms_out"] += len(result.terms)

    def prolong_after(args, result):
        c["delta.prolong.terms_out"] += len(result.terms)

    def system_before(args):
        system = args[0]
        c["di.system.rows"] += len(system.rows)
        c["di.system.cols"] += len(system.col_order)
        c["di.system.nnz"] += sum(1 for row in system.rows.values()
                                  for v in row.values() if v)

    def system_after(args, result):
        if result is not None:
            c["di.solve.useful"] += 1

    def gfp_before(args):
        _, rows, _, ncols = args[:4]
        c["gfp.cells"] += len(rows) * ncols
        # rows arrive reduced mod p, so the zeros are exactly the 0 entries
        c["gfp.nnz"] += sum(len(row) - row.count(0) for row in rows)

    return {"poly.nf": (nf_before, nf_after),
            "delta.prolong": (None, prolong_after),
            "di.solve": (system_before, system_after),
            "gfp.solve": (gfp_before, None)}


def install(tracer):
    """Wrap every traced attribute of the loaded ``wf`` modules."""
    patcher = Patcher()
    hooks = _hooks(tracer)
    for name, modname, clsname, attr in TRACED:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        before, after = hooks.get(name, (None, None))
        if clsname is None:
            original = getattr(mod, attr)
            patcher.replace_everywhere(
                original, traced(tracer, name, original, before, after))
        else:
            cls = getattr(mod, clsname)
            patcher.set(cls, attr,
                        traced(tracer, name, getattr(cls, attr), before, after))
    for modname, table in CONSTRUCTOR_TABLES:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        constructors = getattr(mod, table)
        for key, fn in list(constructors.items()):
            patcher.set_item(constructors, key, traced(tracer, "scheme.build", fn))
    _install_counters(tracer, patcher)
    return patcher


def _install_counters(tracer, patcher):
    c = tracer.counts
    base_ring = sys.modules.get("wf.base_ring")
    if base_ring is not None:
        elem_init = base_ring.BaseElem.__init__
        witt = tracer.index["witt.op"]

        def __init__(self, spec, coeffs, prec):
            c["base_ring.elems"] += 1
            if tracer.depth[witt]:
                c["base_ring.elems_in_witt"] += 1
            elem_init(self, spec, coeffs, prec)

        patcher.set(base_ring.BaseElem, "__init__", __init__)
    gfp = sys.modules.get("wf.gfp")
    if gfp is not None:
        rref = gfp.rref

        def counted_rref(p, rows, ncols):
            pivots = rref(p, rows, ncols)
            c["gfp.rank"] += len(pivots)
            return pivots

        patcher.replace_everywhere(rref, functools.wraps(rref)(counted_rref))
