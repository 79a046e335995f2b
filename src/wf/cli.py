"""Command line front end: deterministic JSON reports over the library.

Subcommands cover Witt vector arithmetic (witt), universal jet
polynomials (prolong), jet-space chart presentations (jet), chart by
chart Frobenius lifts (lift), the lifting obstruction class (di),
pullback/pushforward compatibility along a morphism (compat),
closed-form arithmetic bounds (bounds), and a seeded run over every
builtin object (corpus).  COMMANDS declares each once; `wf <command>`
builds only that command's parser, and `wf`, `wf --help` or an unknown
command build all eight, so help, usage and error text are the same.

Reports share one envelope, {"schema": "wf-report/1", "command": ...},
and are serialized with sorted keys, two-space indent, and a trailing
newline, so identical configurations produce byte-identical output.
Integers beyond the 53-bit mantissa of a double are emitted as decimal
strings; everything smaller stays a JSON number.

Exit codes: 0 the computation finished; 1 it finished but contradicted
an --expect-* flag; 2 the input was rejected (bad flags, unreadable
files, malformed polynomials, unsupported structure); 3 a search stopped
at its bound without a definitive answer.
"""

import argparse
import json
import os
import random
import sys

from .base_ring import BaseRingSpec, IntModRing, IntRing
from .bounds import bounds_report
from .delta import DeltaContext
from .di import (build_compatible_lifts, compatibility_check,
                 compute_di_class, local_frobenius_lift)
from .errors import (Inconclusive, NonSmooth, NoSolutionAtBound, ParseError,
                     WfError)
from .jet import JetPresentation
from .poly import MvPoly, parse_poly
from .scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, GluedScheme,
                     SchemeMorphism, validate_gluing, validate_morphism)
from .witt import WittContext, ghost

SCHEMA = "wf-report/1"

# largest integer a double-backed JSON reader keeps exact
SAFE_INT = 2 ** 53


# -- serialization --------------------------------------------------------------


def _scrub(value):
    """Recursively replace out-of-range integers with decimal strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if -SAFE_INT <= value <= SAFE_INT else str(value)
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    return value


def _dumps(report):
    """The report's bytes: scrubbed, sorted keys, two-space indent."""
    return json.dumps(_scrub(report), indent=2, sort_keys=True) + "\n"


def _envelope(command, payload):
    # every command runs in one thread; wf-report/1 keeps the field
    report = {"schema": SCHEMA, "command": command, "threads": 1}
    report.update(payload)
    return report


def _emit(report, args):
    text = _dumps(report)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(args, exc, code, **extra):
    err = {"type": type(exc).__name__, "message": str(exc)}
    for k, v in extra.items():
        if v is not None:
            err[k] = v
    report = {"schema": SCHEMA,
              "command": getattr(args, "command", None),
              "error": err}
    # error reports always go to stdout; --output is reserved for results
    sys.stdout.write(_dumps(report))
    return code


# -- input parsing --------------------------------------------------------------


def _ints(text, flag):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ParseError("%s expects comma-separated integers, got %r"
                         % (flag, text))


def _pair(text, flag):
    vals = _ints(text, flag)
    if len(vals) != 2:
        raise ParseError("%s expects two components a0,a1" % flag)
    return vals


def _read_json(path):
    with open(path) as fh:
        raw = fh.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc.msg),
                         position=exc.pos)


def _base_ring(args):
    """The ring the flags name; --precision and --m default to 4 and 1."""
    eis = _ints(args.eisenstein, "--eisenstein") if args.eisenstein else None
    return BaseRingSpec(args.p, eis,
                        4 if args.precision is None else args.precision,
                        1 if args.m is None else args.m)


def _load(token, args, builtins, cls, validate):
    """A builtin from the table or a JSON document read by cls, either way
    checked by validate; the messages name the kind of object cls holds.
    A document keeps its own ring unless --p is given, so the other ring
    flags are refused without it rather than ignored."""
    what = "scheme" if cls is GluedScheme else "morphism"
    if token in builtins:
        if args.p is None:
            raise WfError("--p is required with builtin %s %r" % (what, token))
        loaded = builtins[token](_base_ring(args))
    elif not os.path.exists(token):
        raise WfError("unknown %s %r: not a builtin (%s) and not a file"
                      % (what, token, ", ".join(sorted(builtins))))
    else:
        given = [flag for flag in ("m", "precision", "eisenstein")
                 if getattr(args, flag) is not None]
        if args.p is None and given:
            raise WfError("--%s needs --p: the %s document %r keeps its own "
                          "ring otherwise" % (given[0], what, token))
        ring = _base_ring(args) if args.p is not None else None
        loaded = cls.from_json(_read_json(token), ring)
    validate(loaded)
    return loaded


def _load_scheme(token, args):
    return _load(token, args, BUILTIN_SCHEMES, GluedScheme, validate_gluing)


def _select_patches(scheme, name):
    if name is None:
        return list(scheme.patches)
    picked = [pr for pr in scheme.patches if pr.name == name]
    if not picked:
        raise WfError("no patch named %r in scheme %r (have %s)"
                      % (name, scheme.name,
                         ", ".join(pr.name for pr in scheme.patches)))
    return picked


# -- subcommands ----------------------------------------------------------------


def cmd_witt(args):
    if args.mod:
        ring = IntModRing(args.p, args.mod, args.m)
        coeffs = "Z/%d^%d" % (args.p, args.mod)
    else:
        ring = IntRing(args.p, args.m)
        coeffs = "Z"
    ctx = WittContext(ring)
    payload = {"p": args.p, "q": ctx.q, "op": args.op, "coefficients": coeffs}
    if args.op == "delta":
        if args.mod:
            raise WfError("op delta needs exact integer coefficients; "
                          "drop --mod")
        vals = _ints(args.a, "--a")
        if len(vals) != 1:
            raise ParseError("op delta takes a single integer in --a")
        payload["input"] = vals[0]
        payload["result"] = ring.base_delta(vals[0])
    else:
        a = ctx.vec(*_pair(args.a, "--a"))
        payload["a"] = [a.a0, a.a1]
        if args.op == "ghost":
            g0, g1 = ghost(a)
            payload["result"] = [g0, g1]
        elif args.op == "neg":
            out = -a
            payload["result"] = [out.a0, out.a1]
        else:
            if args.b is None:
                raise WfError("--b is required for op %r" % (args.op,))
            b = ctx.vec(*_pair(args.b, "--b"))
            payload["b"] = [b.a0, b.a1]
            out = {"add": lambda: a + b,
                   "sub": lambda: a - b,
                   "mul": lambda: a * b}[args.op]()
            payload["result"] = [out.a0, out.a1]
    _emit(_envelope("witt", payload), args)
    return 0


def cmd_prolong(args):
    ring = IntRing(args.p, args.m)
    names = tuple(part.strip() for part in args.vars.split(","))
    if len(set(names)) != len(names) or not all(names):
        raise WfError("--vars must list distinct nonempty names")
    f = parse_poly(args.expr, ring, names)
    dctx = DeltaContext(ring, names)
    out = dctx.prolong(f)
    payload = {"p": args.p, "q": ring.q,
               "input": f.to_text(),
               "vars": list(names),
               "jet_vars": list(dctx.jet_vars),
               "result": out.to_text()}
    if args.at is not None:
        base_vals = _ints(args.at, "--at")
        if len(base_vals) != len(names):
            raise WfError("--at needs %d values" % len(names))
        if args.jet_at is not None:
            jet_vals = _ints(args.jet_at, "--jet-at")
            if len(jet_vals) != len(names):
                raise WfError("--jet-at needs %d values" % len(names))
        else:
            jet_vals = [ring.base_delta(v) for v in base_vals]
        point = dict(zip(names, base_vals))
        point.update(zip(dctx.jet_vars, jet_vals))
        payload["at"] = base_vals
        payload["jet_at"] = jet_vals
        payload["value"] = out.evaluate(point)
        payload["delta_of_value"] = ring.base_delta(f.evaluate(
            dict(zip(names, base_vals))))
    _emit(_envelope("prolong", payload), args)
    return 0


def cmd_jet(args):
    scheme = _load_scheme(args.scheme, args)
    charts = _select_patches(scheme, args.patch)
    payload = {"scheme": scheme.name,
               "ring": scheme.ring.to_json(),
               "charts": [JetPresentation(pr).to_json() for pr in charts]}
    _emit(_envelope("jet", payload), args)
    return 0


def cmd_lift(args):
    scheme = _load_scheme(args.scheme, args)
    charts = _select_patches(scheme, args.patch)
    lifts = [local_frobenius_lift(pr, args.deg_bound, args.max_deg)
             for pr in charts]
    payload = {"scheme": scheme.name,
               "ring": scheme.ring.to_json(),
               "lifts": [lift.to_json() for lift in lifts]}
    _emit(_envelope("lift", payload), args)
    return 0


def cmd_di(args):
    scheme = _load_scheme(args.scheme, args)
    rep = compute_di_class(scheme, args.pole_bound, args.deg_bound)
    _emit(_envelope("di", rep.to_json()), args)
    if args.expect_zero and not rep.vanishes:
        return 1
    return 0


def cmd_compat(args):
    morphism = _load(args.morphism, args, BUILTIN_MORPHISMS, SchemeMorphism,
                     validate_morphism)
    if args.independent:
        mode = "independent"
        x_lifts = [local_frobenius_lift(pr, args.deg_bound, args.max_deg)
                   for pr in morphism.source.patches]
        y_lifts = [local_frobenius_lift(pr, args.deg_bound, args.max_deg)
                   for pr in morphism.target.patches]
    else:
        mode = "constructed"
        x_lifts, y_lifts = build_compatible_lifts(
            morphism, start_degree=args.deg_bound, max_degree=args.max_deg)
    rep = compatibility_check(morphism, x_lifts, y_lifts)
    payload = rep.to_json()
    payload["mode"] = mode
    payload["source_lifts"] = [lift.to_json() for lift in x_lifts]
    payload["target_lifts"] = [lift.to_json() for lift in y_lifts]
    _emit(_envelope("compat", payload), args)
    if args.expect_compatible and not rep.compatible:
        return 1
    return 0


def cmd_bounds(args):
    payload = bounds_report(args.g, args.p, args.d, args.l)
    _emit(_envelope("bounds", payload), args)
    return 0


# -- corpus ---------------------------------------------------------------------


def _corpus_witt(rng):
    out = []
    for p in (2, 3, 5):
        ctx = WittContext(IntRing(p))
        for _ in range(4):
            a = ctx.vec(rng.randint(-999, 999), rng.randint(-999, 999))
            b = ctx.vec(rng.randint(-999, 999), rng.randint(-999, 999))
            s = a + b
            m = a * b
            gs = ghost(s)
            out.append({"p": p,
                        "a": [a.a0, a.a1], "b": [b.a0, b.a1],
                        "sum": [s.a0, s.a1], "product": [m.a0, m.a1],
                        "ghost_sum": [gs[0], gs[1]]})
    return out


def _corpus_prolong(rng):
    names = ("x", "y")
    monos = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    out = []
    for p in (2, 3, 5):
        ring = IntRing(p)
        dctx = DeltaContext(ring, names)
        for _ in range(3):
            terms = {}
            for e in monos:
                c = rng.randint(-9, 9)
                if c:
                    terms[e] = c
            f = MvPoly(ring, names, terms)
            g = dctx.prolong(f)
            base_vals = [rng.randint(-9, 9) for _ in names]
            point = dict(zip(names, base_vals))
            full = dict(point)
            full.update(zip(dctx.jet_vars,
                            (ring.base_delta(v) for v in base_vals)))
            out.append({"p": p,
                        "poly": f.to_text(),
                        "point": base_vals,
                        "delta_of_value": ring.base_delta(f.evaluate(point)),
                        "prolonged_at_point": g.evaluate(full)})
    return out


def _corpus_di():
    out = []
    for p in (2, 3, 5):
        ring = BaseRingSpec(p)
        for name in sorted(BUILTIN_SCHEMES):
            try:
                scheme = BUILTIN_SCHEMES[name](ring)
            except NonSmooth as exc:
                out.append({"scheme": name, "p": p, "skipped": str(exc)})
                continue
            entry = compute_di_class(scheme).to_json()
            entry["p"] = p
            out.append(entry)
    return out


def _corpus_compat():
    out = []
    for p in (3, 5):
        ring = BaseRingSpec(p)
        for name in sorted(BUILTIN_MORPHISMS):
            morphism = BUILTIN_MORPHISMS[name](ring)
            x_lifts, y_lifts = build_compatible_lifts(morphism)
            rep = compatibility_check(morphism, x_lifts, y_lifts)
            x_ind = [local_frobenius_lift(pr) for pr in morphism.source.patches]
            y_ind = [local_frobenius_lift(pr) for pr in morphism.target.patches]
            rep_ind = compatibility_check(morphism, x_ind, y_ind)
            out.append({"morphism": name, "p": p, "kind": morphism.kind,
                        "constructed_compatible": rep.compatible,
                        "independent_compatible": rep_ind.compatible,
                        "identity_holds": True})
    return out


def cmd_corpus(args):
    rng = random.Random(args.seed)
    payload = {"seed": args.seed,
               "witt_samples": _corpus_witt(rng),
               "prolong_samples": _corpus_prolong(rng),
               "di": _corpus_di(),
               "compat": _corpus_compat(),
               "bounds": [bounds_report(g, p, d)
                          for (g, p, d) in ((1, 3, 1), (1, 5, 1),
                                            (2, 2, 1), (2, 3, 1))]}
    _emit(_envelope("corpus", payload), args)
    return 0


# -- argument plumbing ----------------------------------------------------------


def _add_output(p):
    p.add_argument("--output", metavar="PATH",
                   help="write the report to this file instead of stdout")


def _add_ring_flags(p):
    p.add_argument("--p", type=int, default=None,
                   help="residue characteristic; required for builtin "
                        "names, overrides the ring stored in a file and "
                        "is required there by the other ring flags")
    p.add_argument("--m", type=int, default=None,
                   help="Frobenius power, q = p^m (default 1)")
    p.add_argument("--precision", type=int, default=None,
                   help="pi-adic working precision (default 4)")
    p.add_argument("--eisenstein", metavar="C0,C1,...",
                   help="defining polynomial of the base ring, constant "
                        "coefficient first, leading coefficient 1; "
                        "default is x - p")


def _witt_flags(w):
    w.add_argument("--p", type=int, required=True, help="prime")
    w.add_argument("--m", type=int, default=1, help="Frobenius power")
    w.add_argument("--mod", type=int, default=0, metavar="K",
                   help="work over Z/p^K instead of exact integers")
    w.add_argument("--op", required=True,
                   choices=("add", "sub", "mul", "neg", "ghost", "delta"))
    w.add_argument("--a", required=True, metavar="A0,A1",
                   help="first operand (a single integer for op delta)")
    w.add_argument("--b", metavar="B0,B1", help="second operand")


def _prolong_flags(pr):
    pr.add_argument("expr", help="polynomial text, e.g. 'x^2*y - 3'")
    pr.add_argument("--p", type=int, required=True, help="prime")
    pr.add_argument("--m", type=int, default=1, help="Frobenius power")
    pr.add_argument("--vars", default="x", metavar="X,Y,...",
                    help="variable names (default x)")
    pr.add_argument("--at", metavar="A1,A2,...",
                    help="evaluate at this integer point")
    pr.add_argument("--jet-at", metavar="D1,D2,...",
                    help="jet coordinates at the point; defaults to the "
                         "canonical derivation of each coordinate")


def _jet_flags(je):
    je.add_argument("scheme", help="builtin name or JSON file")
    _add_ring_flags(je)
    je.add_argument("--patch", help="restrict to one named patch")


def _lift_flags(li):
    li.add_argument("scheme", help="builtin name or JSON file")
    _add_ring_flags(li)
    li.add_argument("--patch", help="restrict to one named patch")
    li.add_argument("--deg-bound", type=int, default=None,
                    help="starting degree for the coefficient search")
    li.add_argument("--max-deg", type=int, default=None,
                    help="degree ceiling before giving up")


def _di_flags(di):
    di.add_argument("scheme", help="builtin name or JSON file")
    _add_ring_flags(di)
    di.add_argument("--deg-bound", type=int, default=None,
                    help="starting degree for the chart lift search")
    di.add_argument("--pole-bound", type=int, default=None,
                    help="degree bound for the coboundary witness search; "
                         "defaults to the completeness threshold")
    di.add_argument("--expect-zero", action="store_true",
                    help="exit 1 unless the class vanishes")


def _compat_flags(co):
    co.add_argument("morphism", help="builtin name or JSON file")
    _add_ring_flags(co)
    co.add_argument("--independent", action="store_true",
                    help="use independently computed chart lifts on both "
                         "sides instead of solving for compatible ones")
    co.add_argument("--deg-bound", type=int, default=None,
                    help="starting degree for the lift search")
    co.add_argument("--max-deg", type=int, default=None,
                    help="degree ceiling before giving up")
    co.add_argument("--expect-compatible", action="store_true",
                    help="exit 1 unless the lift discrepancy vanishes")


def _bounds_flags(bo):
    bo.add_argument("--g", type=int, required=True, help="genus, >= 1")
    bo.add_argument("--p", type=int, required=True, help="prime")
    bo.add_argument("--d", type=int, required=True,
                    help="degree of the coefficient field over the rationals")
    bo.add_argument("--l", type=int, default=5,
                    help="auxiliary prime for the group-order bound "
                         "(default 5)")


def _corpus_flags(cp):
    cp.add_argument("--seed", type=int, default=0,
                    help="seed for the sampled sections (default 0)")


# every subcommand once, in the order `wf --help` lists them:
# (name, help text, flag builder, handler); each also takes --output
COMMANDS = (
    ("witt", "length-two Witt vector arithmetic", _witt_flags, cmd_witt),
    ("prolong", "universal jet polynomial of an expression", _prolong_flags,
     cmd_prolong),
    ("jet", "jet-space presentation of each chart", _jet_flags, cmd_jet),
    ("lift", "chart-by-chart Frobenius lifts", _lift_flags, cmd_lift),
    ("di", "obstruction class of a glued scheme", _di_flags, cmd_di),
    ("compat", "pullback/pushforward compatibility of obstruction cocycles "
               "along a morphism", _compat_flags, cmd_compat),
    ("bounds", "closed-form arithmetic bounds", _bounds_flags, cmd_bounds),
    ("corpus", "seeded deterministic run over every builtin scheme, "
               "morphism, and bound", _corpus_flags, cmd_corpus),
)


def _build_parser(argv):
    """The parser for argv: the top parser with only the subparser that
    argv[0] names, or with every subparser when argv[0] names none (no
    arguments, --help, an unknown command), so that help, usage and
    error messages are those of the full tree."""
    top = argparse.ArgumentParser(
        prog="wf",
        description="Exact arithmetic for Frobenius lifts: Witt vectors, "
                    "jet spaces, obstruction classes, and bounds.")
    sub = top.add_subparsers(dest="command", metavar="command")
    sub.required = True
    named = [cmd for cmd in COMMANDS if cmd[0] in argv[:1]]
    for name, text, flags, handler in named or COMMANDS:
        parser = sub.add_parser(name, help=text)
        _add_output(parser)
        flags(parser)
        parser.set_defaults(func=handler)
    return top


def main(argv=None):
    # integers of any size are read and printed, so the interpreter's
    # int <-> str digit limit (where it has one) is lifted while main runs
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv).parse_args(argv)
        try:
            return args.func(args)
        except ParseError as exc:
            return _fail(args, exc, 2, position=exc.position)
        except Inconclusive as exc:
            return _fail(args, exc, 3, bound=exc.bound,
                         threshold=exc.threshold)
        except NoSolutionAtBound as exc:
            return _fail(args, exc, 3, bound=exc.bound)
        except WfError as exc:
            return _fail(args, exc, 2)
        except OSError as exc:
            return _fail(args, exc, 2)
        except UnicodeDecodeError as exc:  # a document that is not UTF-8
            return _fail(args, exc, 2)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
