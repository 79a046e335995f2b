"""Self-tests of the benchmark harness (not collected by pytest).

    python3 perfbench/selftest.py

They cover the self-time arithmetic, the digest check, the op limit,
that tracing changes no report byte, and that BENCHMARK.json names the
metrics ``run.py`` prints.
"""

import json
import os
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["WF_THREADS"] = "1"

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        t = tracing.Tracer(names=("a", "b", "c"), clock=clock)
        a = t.enter(0)           # a: 0 .. 10
        clock.now = 1.0
        b = t.enter(1)           # b: 1 .. 4, holds c
        clock.now = 2.0
        c = t.enter(2)           # c: 2 .. 3
        clock.now = 3.0
        t.exit(c)
        clock.now = 4.0
        t.exit(b)
        clock.now = 6.0
        b2 = t.enter(1)          # b: 6 .. 8
        clock.now = 8.0
        t.exit(b2)
        clock.now = 10.0
        t.exit(a)
        self.assertEqual(t.self_s, [10.0 - 3.0 - 2.0, 3.0 - 1.0 + 2.0, 1.0])
        self.assertEqual(t.incl_s, [10.0, 5.0, 1.0])
        self.assertEqual(t.calls, [1, 2, 1])
        self.assertEqual(t.max_s, [10.0, 3.0, 1.0])
        self.assertEqual(list(t.log_parent), [-1, 0, 1, 0])

    def test_same_name_nesting_counts_outermost_once(self):
        clock = FakeClock()
        t = tracing.Tracer(names=("check",), clock=clock)
        outer = t.enter(0)
        clock.now = 1.0
        inner = t.enter(0)
        clock.now = 3.0
        t.exit(inner)
        clock.now = 4.0
        t.exit(outer)
        self.assertEqual(t.incl_s, [4.0])
        self.assertEqual(t.self_s, [4.0])

    def test_untimed_bookkeeping_is_nobodys_self_time(self):
        clock = FakeClock()
        t = tracing.Tracer(names=("a",), clock=clock)
        a = t.enter(0)
        clock.now = 1.0
        start = clock()
        clock.now = 3.0
        t.untimed(start)
        clock.now = 4.0
        t.exit(a)
        self.assertEqual(t.self_s, [2.0])


def cli_op(argv):
    return workloads.CliOp(argv, workloads.load_pins())


class DigestCheck(unittest.TestCase):
    def test_one_byte_change_is_flagged(self):
        import wf.cli
        op = cli_op(("di", "weierstrass", "--p", "3"))
        rc, text = op.run(wf.cli)
        self.assertEqual(op.judge((rc, text)).status, "ok")
        k = text.index('"vanishes"')
        bad = text[:k + 1] + "V" + text[k + 2:]
        self.assertEqual(len(bad), len(text))
        out = op.judge((rc, bad))
        self.assertEqual(out.status, "wrong")
        self.assertIn("sha256", out.detail)

    def test_wrong_verdict_fails_the_oracle_without_a_pin(self):
        import wf.cli
        op = cli_op(("di", "weierstrass", "--p", "5"))
        rc, text = op.run(wf.cli)
        op.pin = None
        self.assertEqual(op.judge((rc, text)).status, "ok")
        flipped = text.replace('"vanishes": true', '"vanishes": false')
        self.assertEqual(op.judge((rc, flipped)).status, "wrong")

    def test_error_report_is_a_failure(self):
        import wf.cli
        op = cli_op(("di", "weierstrass", "--p", "2"))
        out = op.judge(op.run(wf.cli))
        self.assertEqual((out.status, out.exit), ("error:NonSmooth", 2))


class SlowOp:
    kind = "cli"
    name = "spin"

    def run(self, target):
        while True:
            pass

    def judge(self, raw):
        raise AssertionError("a stopped op is never judged")


class OpLimit(unittest.TestCase):
    def test_limit_stops_a_spinning_op_and_charges_the_limit(self):
        phase = worker.Phase([SlowOp()], None, worker.Limiter(0.2))
        t0 = time.perf_counter()
        phase.run_pass()
        elapsed = time.perf_counter() - t0
        (stats,) = phase.stats
        self.assertEqual((stats.status, stats.exit, stats.charged), ("timeout", None, [0.2]))
        self.assertLess(elapsed, 2.0)

    def test_timer_is_disarmed_after_a_fast_op(self):
        limiter = worker.Limiter(0.05)
        result, timed_out, exc, _ = limiter.run(lambda: 7)
        time.sleep(0.1)  # an alarm left armed would fire here
        self.assertEqual((result, timed_out, exc), (7, False, None))


class TracingChangesNoBytes(unittest.TestCase):
    def test_traced_digests_equal_untraced(self):
        import wf.base_ring
        import wf.cli
        import wf.witt
        ops = [cli_op(argv) for argv in (("di", "weierstrass", "--p", "3"),
                                         ("di", "p1", "--p", "3"),
                                         ("compat", "weierstrass_in_p2", "--p", "3"),
                                         ("corpus", "--seed", "0"))]
        rounds = workloads.witt_rounds(0, wf.base_ring, wf.witt, rounds=3)
        limiter = worker.Limiter(workloads.OP_LIMIT_S)

        def run_once(tracer=None):
            phases = [worker.Phase(ops, wf.cli, limiter, tracer),
                      worker.Phase(rounds, wf.witt, limiter, tracer)]
            for phase in phases:
                phase.run_pass()
            return phases

        plain = [s for phase in run_once() for s in phase.stats]
        originals = (wf.cli.main, wf.di.gfp_solve, wf.poly.MvPoly.__mul__,
                     wf.base_ring.BaseElem.__init__, dict(wf.scheme.BUILTIN_SCHEMES))
        t = tracing.Tracer()
        patcher = tracing.install(t)
        try:
            self.assertIsNot(wf.di.gfp_solve, originals[1])
            self.assertIs(wf.di.gfp_solve, wf.gfp.solve)
            cli_phase, witt_phase = run_once(t)
            traced = cli_phase.stats + witt_phase.stats
            layers = dict(cli_phase.layers[0], **{"witt.ops": witt_phase.layers[0]["witt.ops"]})
        finally:
            patcher.restore()
        self.assertEqual([s.status for s in plain + traced], ["ok"] * 2 * len(plain))
        self.assertEqual([s.digest for s in traced], [s.digest for s in plain])
        self.assertEqual((wf.cli.main, wf.di.gfp_solve, wf.poly.MvPoly.__mul__,
                          wf.base_ring.BaseElem.__init__,
                          dict(wf.scheme.BUILTIN_SCHEMES)), originals)
        for name in ("witt.ops", "poly.nf.calls", "poly.mul.calls",
                     "delta.prolong.calls", "jet.linearize.calls",
                     "scheme.transport.calls", "di.solves", "gfp.rank",
                     "base_ring.elems", "cli.report_bytes"):
            self.assertGreater(layers[name], 0, name)
        for name in ("scheme.build_s", "di.lift_s", "di.coboundary_s",
                     "di.compat_build_s", "di.checks_s", "gfp.solve_s",
                     "cli.self_s"):
            self.assertGreater(layers[name], 0.0, name)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        with open(HERE.parent / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)
        tracer_names = set(tracing.Tracer().layer_metrics())
        self.assertEqual(tracer_names | {"cli.import_s", "trace.overhead"},
                         set(run.PER_LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()
