"""The benchmark of ``wf``: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {witt,curves,corpus} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload defects --seed N --seconds S

Run it from the root of a checkout; it drives ``src/wf`` in place.  Each
run spawns a few set-up-only workers to time set-up, then one measuring
worker: a closed loop with a single client and a single thread.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it give the run environment
and one row per op.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones from a traced run.  Results and spans
are also written under ``perfbench/out``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 15  # set-up timings per run, the measuring worker's included
# Nominal time of worker.reference_kernel; reported times are scaled to it
REFERENCE_S = 0.002
# Nominal time of a bare interpreter start; set-up times are scaled to it
BARE_START_S = 0.06
RUN_DEADLINE_S = 170  # a run ends within this, stuck worker or not

END_TO_END = (
    ("batch_s", "s"), ("op_p50_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {
    "base_ring.elems": "count", "base_ring.elems_per_witt_op": "count",
    "witt.ops": "count", "witt.op_s": "s",
    "poly.nf.calls": "count", "poly.nf_s": "s", "poly.nf.terms_in": "count",
    "poly.nf.terms_out": "count", "poly.nf.max_call_s": "s",
    "poly.mul.calls": "count", "poly.mul_s": "s", "poly.pow.calls": "count",
    "poly.pow_s": "s", "poly.subst.calls": "count", "poly.subst_s": "s",
    "delta.prolong.calls": "count", "delta.prolong_s": "s",
    "delta.prolong.terms_out": "count",
    "jet.linearize.calls": "count", "jet.linearize_s": "s",
    "scheme.build_s": "s", "scheme.transport.calls": "count",
    "scheme.transport_s": "s", "scheme.fder_apply_s": "s",
    "di.lift_s": "s", "di.coboundary_s": "s", "di.compat_build_s": "s",
    "di.checks_s": "s", "di.solves": "count", "di.solve.useful_ratio": "1",
    "di.system.rows": "count", "di.system.cols": "count",
    "di.system.nnz": "count", "di.densify_s": "s",
    "gfp.solve_s": "s", "gfp.cells": "count", "gfp.density": "1",
    "gfp.rank": "count",
    "cli.import_s": "s", "cli.self_s": "s", "cli.report_bytes": "bytes",
    "trace.overhead": "1",
}


class BenchError(Exception):
    pass


def environment():
    """Facts that a result is only comparable under."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = tree_sha256(ROOT / "src" / "wf")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "git_commit": git_commit(), "src_sha256": src,
            "WF_THREADS": "1", "op_limit_s": workloads.OP_LIMIT_S}


def tree_sha256(path):
    h = sha256()
    for f in sorted(path.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["WF_THREADS"] = "1"  # echoed in every report, so it is in the digests
    env.pop("PYTHONHASHSEED", None)  # the digests then also check byte determinism
    return env


def bare_start(deadline):
    """Seconds from spawning an interpreter that imports nothing until it
    runs its first line, timed like a worker's set-up."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", "import time; print(time.monotonic())"],
                            stdout=subprocess.PIPE, env=worker_env(), cwd=str(ROOT))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a bare interpreter did not start in time")
    return float(out) - t0


def spawn(workload, seed, seconds, mode, deadline, spans=None):
    """Run one worker; returns (its result, seconds from spawn to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(), cwd=str(ROOT))
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker for %s did not finish in time" % workload)
    if proc.returncode != 0:
        raise BenchError("worker for %s exited %d:\n%s"
                         % (workload, proc.returncode, err.decode()[-2000:]))
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result, result["ready"] - t0


class PhaseSummary:
    """Charged times of one worker phase, scaled to the reference speed.

    A time t measured in a pass in which the reference kernel took r
    seconds (the pass's median) is reported as t * REFERENCE_S / r: the
    time on a machine where the kernel takes REFERENCE_S.  A failed op stays
    charged exactly OP_LIMIT_S, and no passing op is charged more.
    """

    def __init__(self, phase):
        limit = workloads.OP_LIMIT_S
        self.ops = phase["ops"]
        self.ref_s = [statistics.median(r) for r in phase["ref_s"]]
        self.scales = [REFERENCE_S / r for r in self.ref_s]
        self.scale = statistics.median(self.scales)
        self.charged = [[c if c == limit else min(c * scale, limit)
                         for c, scale in zip(op["charged"], self.scales)]
                        for op in self.ops]
        self.batches = [sum(col) for col in zip(*self.charged)]
        self.wall_batches = [sum(col) for col in zip(*(op["seconds"] for op in self.ops))]
        self.attempted = sum(len(c) for c in self.charged)
        self.failed = sum(1 for c in self.charged for x in c if x == limit)
        self.wrong = sum(1 for op in self.ops if op["status"] == "wrong")
        self.layers = phase["layers"]

    def batch_s(self):
        """One pass over the op list, each op at its median charge: the
        median of whole-pass sums moved with every burst of machine noise."""
        return sum(statistics.median(c) for c in self.charged)

    def op_p50_s(self):
        """The median op: each op at its median charge, as in batch_s."""
        return statistics.median(statistics.median(c) for c in self.charged)

    def rows(self):
        return [{"op": op["name"], "exit": op["exit"], "status": op["status"],
                 "charged_s": statistics.median(c),
                 "wall_s": statistics.median(op["seconds"]),
                 "correct": op["status"] == "ok",
                 "digest": op["digest"], "detail": op["detail"]}
                for op, c in zip(self.ops, self.charged)]

    def layer_metrics(self):
        """Median over passes, times scaled like the end-to-end ones."""
        out = {}
        for name in self.layers[0]:
            timed = PER_LAYER_UNITS[name] == "s"
            out[name] = statistics.median(
                layer[name] * (scale if timed else 1.0)
                for layer, scale in zip(self.layers, self.scales))
        return out


def run_workload(workload, seed, seconds, trace):
    """Set up, measure, and return (report dict, full record)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    setups, bares = [], []
    for _ in range(SETUP_SAMPLES - 1):
        _, s = spawn(workload, seed, seconds, "setup", deadline)
        setups.append(s)
        bares.append(bare_start(deadline))
    # one spans file per workload, overwritten by each traced run
    spans = OUT / ("spans-%s.tsv.gz" % workload) if trace else None
    result, s = spawn(workload, seed, seconds, "trace" if trace else "measure",
                      deadline, spans)
    setups.append(s)
    plain = PhaseSummary(result["plain"])
    phases = [plain]
    problems = []
    if trace:
        traced = PhaseSummary(result["traced"])
        phases.append(traced)
        for row, t_row in zip(plain.rows(), traced.rows()):
            if row["digest"] != t_row["digest"]:
                problems.append("%s: traced report differs from untraced" % row["op"])
        metrics = traced.layer_metrics()
        metrics["cli.import_s"] = result["import_s"] * plain.scale
        metrics["trace.overhead"] = traced.batch_s() / plain.batch_s()
        units = PER_LAYER_UNITS
    else:
        metrics = {"batch_s": plain.batch_s(),
                   "op_p50_s": plain.op_p50_s(),
                   "setup_s": (statistics.median(setups) * BARE_START_S
                               / statistics.median(bares)),
                   "peak_rss_mb": result["rss_kb"] / 1024.0}
        units = dict(END_TO_END)
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    wrong = sum(ph.wrong for ph in phases)
    report = {
        "correct": wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": environment(),
              "passes": len(plain.batches),
              "traced_passes": len(phases[1].batches) if trace else 0,
              "spans": result.get("spans"),
              "reference_s": statistics.median(plain.ref_s),
              "reference_s_per_pass": plain.ref_s,
              "wall_s": [op["seconds"] for op in plain.ops],
              "wall": {"batch_s": statistics.median(plain.wall_batches),
                       "setup_s": statistics.median(setups)},
              "setup_samples_s": setups, "bare_start_samples_s": bares,
              "batch_s_per_pass": plain.batches,
              "fail_ratio": failed / attempted,
              "problems": problems, "rows": plain.rows(), "result": report}
    with open(OUT / ("result-%s-seed%d-trace%d.json" % (workload, seed, trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    return report, record


def print_rows(record):
    print("env %s" % json.dumps(record["env"], sort_keys=True))
    print("run workload=%s seed=%d passes=%d traced_passes=%d fail_ratio=%.4f "
          "reference_s=%.6f wall_batch_s=%.6f wall_setup_s=%.6f"
          % (record["workload"], record["seed"], record["passes"],
             record["traced_passes"], record["fail_ratio"], record["reference_s"],
             record["wall"]["batch_s"], record["wall"]["setup_s"]))
    for row in record["rows"]:
        print("op %-36s exit=%-4s charged_s=%-10.6f wall_s=%-10.6f status=%s correct=%s%s"
              % (row["op"], row["exit"], row["charged_s"], row["wall_s"], row["status"],
                 "yes" if row["correct"] else "no",
                 "  (%s)" % row["detail"] if row["detail"] else ""))
    for problem in record["problems"]:
        print("problem %s" % problem)
    for name, m in record["result"]["metrics"].items():
        print("metric %s %r %s" % (name, m["value"], m["unit"]))


def run_all(seed, seconds):
    """Every workload and the defects probe, summarized in one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for workload in workloads.WORKLOADS + workloads.PROBES:
        report, record = run_workload(workload, seed, seconds, False)
        print_rows(record)
        table.append((workload, report, record))
        if workload in workloads.WORKLOADS:
            total["correct"] = total["correct"] and report["correct"]
            total["attempted"] += report["attempted"]
            total["failed"] += report["failed"]
            for name, m in report["metrics"].items():
                total["metrics"]["%s.%s" % (workload, name)] = m
    print("%-8s %12s %12s %10s %10s %12s" % ("workload", "batch_s", "op_p50_s",
                                             "fail_ratio", "setup_s", "peak_rss_mb"))
    for workload, report, record in table:
        m = report["metrics"]
        print("%-8s %12.4f %12.6f %10.4f %10.4f %12.2f" % (
            workload, m["batch_s"]["value"], m["op_p50_s"]["value"],
            record["fail_ratio"], m["setup_s"]["value"], m["peak_rss_mb"]["value"]))
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + workloads.PROBES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wf" / "cli.py").is_file():
        print("no wf source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            report = run_all(args.seed, args.seconds)
        else:
            report, record = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
            print_rows(record)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
