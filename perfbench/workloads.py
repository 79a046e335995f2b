"""Workload op lists, their inputs drawn from a seed, and the correctness gate.

An op is either one in-process call to ``wf.cli.main(argv)`` with stdout
captured (a CLI op), or one round of Witt-vector ring identities (a witt
op).  Every op is checked twice: against values pinned from the seed
commit (exit code and sha256 of the report bytes) and against oracles that
do not use ``wf`` at all (the expected verdicts below, ghost-map
arithmetic on plain integers, and the corpus self-consistency fields).
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

OP_LIMIT_S = 6.0

# Witt-vector rounds per pass; one round costs about 2 ms, and a round
# rather than a single triple is one op because single-triple timings
# swing by a third between identical runs.
WITT_ROUNDS = 200

# corpus ops per pass, each ``corpus --seed s`` for consecutive s
CORPUS_OPS = 3

CURVES_OPS = (
    ("di", "weierstrass", "--p", "3"),
    ("di", "weierstrass", "--p", "5"),
    ("di", "weierstrass", "--p", "7"),
    ("di", "weierstrass", "--p", "11"),
    ("di", "genus2", "--p", "3"),
    ("compat", "weierstrass_in_p2", "--p", "3"),
    ("compat", "weierstrass_in_p2", "--p", "5"),
    ("compat", "weierstrass_in_p2", "--p", "7"),
)

# Ops that fail at the seed commit.  They stay out of every measured
# workload, whose ops must all pass, and are run by the ``defects``
# probe so that a fix shows there.  Both exhaust the normal-form fuel:
#   di genus2 --p 7                    NotPrepared, exit 2, after ~5.5 s
#   compat weierstrass_in_p2 --p 11    NotPrepared, exit 2, after ~7.9 s
#                                      (stopped at OP_LIMIT_S first)
DEFECT_OPS = (
    ("di", "genus2", "--p", "7"),
    ("compat", "weierstrass_in_p2", "--p", "11"),
)

WORKLOADS = ("witt", "curves", "corpus")
PROBES = ("defects",)

PINS_PATH = Path(__file__).with_name("pins.json")

# builtin scheme names in the order ``wf corpus`` visits them
CORPUS_SCHEMES = ("a1", "a2", "a3", "genus2", "gm", "p1", "p2", "weierstrass")
CORPUS_PRIMES = (2, 3, 5)
# (scheme, p) pairs whose reduction is singular, so the builtin refuses them
SINGULAR = {("weierstrass", 2), ("genus2", 2), ("genus2", 5)}


def vanishes_oracle(scheme, p):
    """Expected ``di`` verdict, from facts that do not depend on ``wf``.

    Affine spaces, G_m and projective spaces carry the global lift
    x -> x^q.  y^2 = x^3 + x is ordinary exactly at p = 1 mod 4, and an
    elliptic curve has a Frobenius lift mod p^2 exactly when it is
    ordinary (its canonical lift).  A curve of genus >= 2 has none.
    """
    if scheme in ("a1", "a2", "a3", "gm", "p1", "p2"):
        return True
    if scheme == "weierstrass":
        return p % 4 == 1
    if scheme == "genus2":
        return False
    raise KeyError(scheme)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(value):
    """The bytes ``wf`` emits for a JSON value: sorted keys, indent 2."""
    return json.dumps(value, indent=2, sort_keys=True)


def load_pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


class Outcome:
    """What one op run produced, judged by the correctness gate."""

    __slots__ = ("status", "exit", "digest", "detail")

    def __init__(self, status, exit, digest, detail=""):
        self.status = status  # ok | wrong | timeout | error:<type> | crash:<type>
        self.exit = exit
        self.digest = digest
        self.detail = detail

    @property
    def passed(self):
        return self.status == "ok"


class CliOp:
    kind = "cli"

    def __init__(self, argv, pins):
        self.argv = list(argv)
        self.name = " ".join(self.argv)
        self.pin = pins["ops"].get(self.name)
        self.pins = pins

    def run(self, cli):
        """One call of ``cli.main``; returns (exit code, report text)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(self.argv)
            except SystemExit as exc:  # argparse refusals
                rc = exc.code
        return rc, buf.getvalue()

    def judge(self, raw):
        rc, text = raw
        digest = sha256(text)
        try:
            report = json.loads(text)
        except ValueError:
            return Outcome("wrong", rc, digest, "report is not JSON")
        if rc != 0:
            err = report.get("error") if isinstance(report, dict) else None
            kind = err.get("type", "?") if isinstance(err, dict) else "?"
            return Outcome("error:%s" % kind, rc, digest,
                           err.get("message", "") if isinstance(err, dict) else "")
        problems = []
        if self.pin is not None:
            if rc != self.pin["exit"]:
                problems.append("exit %r, pinned %r" % (rc, self.pin["exit"]))
            if digest != self.pin["sha256"]:
                problems.append("report sha256 differs from the pinned value")
        if text != canonical(report) + "\n":
            problems.append("report bytes are not the canonical serialization")
        problems.extend(self._oracle(report))
        if problems:
            return Outcome("wrong", rc, digest, "; ".join(problems))
        return Outcome("ok", rc, digest)

    def _oracle(self, report):
        command = self.argv[0]
        if report.get("schema") != "wf-report/1" or report.get("command") != command:
            return ["envelope is not a %s report" % command]
        if report.get("threads") != 1:
            return ["report does not echo WF_THREADS=1"]
        if command == "di":
            p = int(self.argv[self.argv.index("--p") + 1])
            want = vanishes_oracle(self.argv[1], p)
            if report.get("vanishes") is not want:
                return ["vanishes=%r, oracle says %r" % (report.get("vanishes"), want)]
            return []
        if command == "compat":
            if report.get("compatible") is not True:
                return ["constructed compat lifts reported incompatible"]
            return []
        if command == "corpus":
            return check_corpus(report, int(self.argv[2]), self.pins)
        return ["no oracle for %r" % command]


def _ghost(p, v):
    v0, v1 = int(v[0]), int(v[1])
    return (v0, v0 ** p + p * v1)


def check_corpus(report, seed, pins):
    """Seed-independent checks of one ``wf corpus`` report."""
    problems = []
    if report.get("seed") != seed:
        problems.append("seed %r echoed as %r" % (seed, report.get("seed")))
    for section, want in pins["corpus_sections"].items():
        if sha256(canonical(report.get(section))) != want:
            problems.append("section %r differs from its pinned bytes" % section)
    witt = report.get("witt_samples", [])
    if len(witt) != 12:
        problems.append("expected 12 witt samples, got %d" % len(witt))
    for s in witt:
        p = s["p"]
        ga, gb = _ghost(p, s["a"]), _ghost(p, s["b"])
        gs = tuple(int(x) for x in s["ghost_sum"])
        if gs != (ga[0] + gb[0], ga[1] + gb[1]) or gs != _ghost(p, s["sum"]):
            problems.append("ghost_sum is not additive at p=%d" % p)
        if _ghost(p, s["product"]) != (ga[0] * gb[0], ga[1] * gb[1]):
            problems.append("ghost map is not multiplicative at p=%d" % p)
    prolong = report.get("prolong_samples", [])
    if len(prolong) != 9:
        problems.append("expected 9 prolong samples, got %d" % len(prolong))
    for s in prolong:
        if s["delta_of_value"] != s["prolonged_at_point"]:
            problems.append("prolongation of %s disagrees with delta at %r"
                            % (s["poly"], s["point"]))
    di = report.get("di", [])
    expect = [(p, name) for p in CORPUS_PRIMES for name in CORPUS_SCHEMES]
    if len(di) != len(expect):
        problems.append("expected %d di entries" % len(expect))
    for entry, (p, name) in zip(di, expect):
        if entry.get("p") != p:
            problems.append("di entry order differs at %s p=%d" % (name, p))
        elif (name, p) in SINGULAR:
            if "skipped" not in entry:
                problems.append("%s at p=%d is singular but was not skipped" % (name, p))
        elif entry.get("vanishes") is not vanishes_oracle(name, p):
            problems.append("%s at p=%d: vanishes=%r against the oracle"
                            % (name, p, entry.get("vanishes")))
    for entry in report.get("compat", []):
        if entry.get("constructed_compatible") is not True:
            problems.append("constructed lifts of %s at p=%d are incompatible"
                            % (entry.get("morphism"), entry.get("p")))
    return problems


class WittRound:
    """One round: the eight ring identities of acceptance criterion 1 and
    ghost-map additivity and multiplicativity, on one triple per
    (prime, coefficient ring) pair."""

    kind = "witt"

    def __init__(self, index, triples):
        self.name = "witt round %d" % index
        self.triples = triples

    def run(self, witt):
        ghost = witt.ghost
        ok = True
        values = []
        for ctx, zero, one, a, b, c in self.triples:
            r = ctx.ring
            ok = ((a + b) + c == a + (b + c)) and ok
            ok = (a + b == b + a) and ok
            ok = ((a * b) * c == a * (b * c)) and ok
            ok = (a * b == b * a) and ok
            ok = (a * (b + c) == a * b + a * c) and ok
            ok = (a + zero == a) and ok
            ok = (a * one == a) and ok
            ok = (a + (-a) == zero) and ok
            s, m = a + b, a * b
            ga, gb, gs, gm = ghost(a), ghost(b), ghost(s), ghost(m)
            ok = (r.eq(gs[0], r.add(ga[0], gb[0]))
                  and r.eq(gs[1], r.add(ga[1], gb[1]))
                  and r.eq(gm[0], r.mul(ga[0], gb[0]))
                  and r.eq(gm[1], r.mul(ga[1], gb[1]))) and ok
            values.append((s, m))
        return ok, values

    def judge(self, raw):
        ok, values = raw
        digest = sha256("\n".join(repr(v) for v in values))
        if ok:
            return Outcome("ok", 0, digest)
        return Outcome("wrong", 0, digest, "a ring or ghost identity failed")


def witt_rounds(seed, base_ring, witt, rounds=WITT_ROUNDS):
    """Triples with entries in [-p^6, p^6), one per (p, ring) pair a round."""
    rng = random.Random(seed)
    ctxs = []
    for p in (2, 3, 5):
        for ring in (base_ring.IntModRing(p, 4),
                     base_ring.BaseRingSpec(p, [-p, 0, 1])):
            ctx = witt.WittContext(ring)
            ctxs.append((ctx, ctx.zero(), ctx.one(), p ** 6))

    def vec(ctx, span):
        return ctx.vec(ctx.ring.from_int(rng.randrange(-span, span)),
                       ctx.ring.from_int(rng.randrange(-span, span)))

    return [WittRound(i, [(ctx, zero, one,
                           vec(ctx, span), vec(ctx, span), vec(ctx, span))
                          for ctx, zero, one, span in ctxs])
            for i in range(rounds)]


def cli_argvs(workload, seed):
    """The CLI op list of a workload, in the order the seed gives."""
    if workload == "curves":
        ops = list(CURVES_OPS)
        random.Random(seed).shuffle(ops)
        return ops
    if workload == "corpus":
        return [("corpus", "--seed", str(seed + i)) for i in range(CORPUS_OPS)]
    if workload == "defects":
        return list(DEFECT_OPS)
    raise ValueError("unknown CLI workload %r" % (workload,))
