"""Write perfbench/pins.json: the exit code and report sha256 of every
pinned op, and the bytes of the seed-independent corpus sections.

    python3 perfbench/pin.py

Run it only at a deliberate change of the report format: the pins are
the correctness gate's memory of what the seed commit printed, so
re-pinning after any other change would hide a wrong answer.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["WF_THREADS"] = "1"

import workloads  # noqa: E402

CORPUS_SEEDS = range(40)


def main():
    import wf.cli
    pins = {"ops": {}, "corpus_sections": {}}
    argvs = list(workloads.CURVES_OPS)
    argvs += [("corpus", "--seed", str(s)) for s in CORPUS_SEEDS]
    for argv in argvs:
        op = workloads.CliOp(argv, pins)
        rc, text = op.run(wf.cli)
        if rc != 0:
            raise SystemExit("%s exited %d; only passing ops are pinned" % (op.name, rc))
        pins["ops"][op.name] = {"exit": rc, "sha256": workloads.sha256(text)}
        if argv == ("corpus", "--seed", "0"):
            report = json.loads(text)
            for section in ("di", "compat", "bounds"):
                pins["corpus_sections"][section] = workloads.sha256(
                    workloads.canonical(report[section]))
        print(op.name, rc, pins["ops"][op.name]["sha256"], flush=True)
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
