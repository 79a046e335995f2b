"""One single-threaded worker process: import ``wf``, build the workload's
inputs from the seed, then run closed-loop passes over its op list.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Mode ``setup`` stops once the inputs exist; ``measure`` runs untraced
passes for S seconds; ``trace`` runs untraced passes for S/2 seconds and
traced passes for another S/2.  A pass is never cut short, and no pass
starts that the last pass's length says would end past its budget.  The
worker prints one JSON object on stdout when it is done.

Each op runs under an interval timer, so an op still running at the
limit is stopped inside this process and charged the limit.  Between
ops the worker times a fixed reference kernel, so that the parent can
tell a slower program from a machine that got slower.
"""

import argparse
import json
import os
import resource
import signal
import sys
import time

import workloads

# Reference samples are taken at both ends of a pass and between its
# ops, one per this much op time, at most SAMPLE_BURST in a row.
SAMPLE_EVERY_S = 0.04
SAMPLE_BURST = 5


class OpTimeout(BaseException):
    """Raised into a running op by the interval timer.  A BaseException,
    so no ``except Exception`` or ``except WfError`` in the op swallows it."""


class Limiter:
    """Stops an op that runs past limit_s seconds."""

    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def run(self, fn, *args):
        """(result or None, timed out?, exception or None, seconds)."""
        result = exc = None
        timed_out = False
        t0 = time.perf_counter()
        try:
            try:
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, self.limit_s)
                result = fn(*args)
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            timed_out = True
        except Exception as e:  # a crash inside the op is that op's failure
            exc = e
        return result, timed_out, exc, time.perf_counter() - t0


def reference_kernel():
    """Fixed interpreter-bound work of the kind ``wf`` does: big-int
    modular arithmetic, dicts keyed by exponent tuples, and a burst of
    small objects allocated and dropped.  It never changes, so its time
    tracks the machine, not the program."""
    acc = 1
    d = {}
    for i in range(300):
        e = (i % 7, i % 5, i % 3)
        d[e] = (d.get(e, 0) * 31 + i) % 1000003
        acc = (acc * 1000003 + i) % 340282366920938463463374607431768211507
    out = {}
    items = list(d.items())
    for e1, c1 in items:
        for e2, c2 in items[:5]:
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % 1000003
    churn = {}
    for i in range(2000):
        churn[(i % 37, i % 41, i)] = [i, (i, i + 1)]
    return acc + sum(v[1][0] for v in churn.values()) + len(out)


class OpStats:
    """One op's record over all passes of a phase."""

    def __init__(self, name):
        self.name = name
        self.seconds = []
        self.charged = []
        self.status = "ok"
        self.exit = None
        self.digest = None
        self.detail = ""

    def add(self, out, seconds, limit_s):
        if out.passed and self.digest not in (None, out.digest):
            out = workloads.Outcome("wrong", out.exit, out.digest,
                                    "report bytes differ between passes")
        if self.digest is None:
            self.digest = out.digest
        if not out.passed:
            self.status, self.detail = out.status, out.detail
        self.exit = out.exit
        self.seconds.append(seconds)
        # a passing op always ran under the limit, so only a failure
        # is charged exactly limit_s
        self.charged.append(seconds if out.passed else limit_s)

    def to_json(self):
        return {"name": self.name, "exit": self.exit, "status": self.status,
                "detail": self.detail, "digest": self.digest,
                "seconds": self.seconds, "charged": self.charged}


class Phase:
    """Passes over an op list for a time budget, with reference samples."""

    def __init__(self, ops, target, limiter, tracer=None):
        self.ops = ops
        self.target = target
        self.limiter = limiter
        self.tracer = tracer
        self.stats = [OpStats(op.name) for op in ops]
        self.passes = 0
        self.ref_s = []
        self.layers = []
        self.since_sample = 0.0

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            reference_kernel()
            self.ref_s[-1].append(time.perf_counter() - t0)
        self.since_sample = 0.0

    def run_pass(self):
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()
        self.ref_s.append([])
        self.sample()
        for k, op in enumerate(self.ops):
            if self.since_sample >= SAMPLE_EVERY_S:
                self.sample(min(SAMPLE_BURST, int(self.since_sample / SAMPLE_EVERY_S)))
            if tracer is not None:
                tracer.begin_op(self.passes * len(self.ops) + k)
            raw, timed_out, exc, seconds = self.limiter.run(op.run, self.target)
            self.since_sample += seconds
            if timed_out:
                out = workloads.Outcome("timeout", None, None,
                                        "stopped at %.1f s" % self.limiter.limit_s)
            elif exc is not None:
                out = workloads.Outcome("crash:%s" % type(exc).__name__, None,
                                        None, str(exc)[:200])
            else:
                out = op.judge(raw)
                if tracer is not None and op.kind == "cli":
                    tracer.counts["cli.report_bytes"] += len(raw[1].encode())
            self.stats[k].add(out, seconds, self.limiter.limit_s)
        self.sample()
        self.passes += 1
        if tracer is not None:
            self.layers.append(tracer.layer_metrics())

    def run(self, budget_s):
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.run_pass()
            now = time.perf_counter()
            if now - start + (now - t0) > budget_s:
                return self

    def to_json(self):
        return {"ops": [s.to_json() for s in self.stats], "ref_s": self.ref_s,
                "layers": self.layers}


def build(workload, seed):
    """Import what the workload drives and generate its inputs."""
    t0 = time.perf_counter()
    if workload == "witt":
        import wf.base_ring
        import wf.witt
        import_s = time.perf_counter() - t0
        return wf.witt, workloads.witt_rounds(seed, wf.base_ring, wf.witt), import_s
    import wf.cli
    import_s = time.perf_counter() - t0
    pins = workloads.load_pins()
    ops = [workloads.CliOp(argv, pins) for argv in workloads.cli_argvs(workload, seed)]
    return wf.cli, ops, import_s


def pin_to_one_cpu():
    """Keep the worker on one CPU: migrating between CPUs made pass times
    swing more than the work does."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    pin_to_one_cpu()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spans", help="gzip TSV file for the spans of a traced run")
    args = ap.parse_args()

    target, ops, import_s = build(args.workload, args.seed)
    result = {"ready": time.monotonic(), "import_s": import_s}
    if args.mode != "setup":
        limiter = Limiter(workloads.OP_LIMIT_S)
        budget = args.seconds if args.mode == "measure" else args.seconds / 2
        result["plain"] = Phase(ops, target, limiter).run(budget).to_json()
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.mode == "trace":
            import tracer as tracing
            tracer = tracing.Tracer()
            patcher = tracing.install(tracer)
            try:
                phase = Phase(ops, target, limiter, tracer).run(budget)
            finally:
                patcher.restore()
            result["traced"] = phase.to_json()
            result["spans"] = tracer.span_count()
            if args.spans:
                tracer.write(args.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
