"""Command-line interface.

Subcommands:
  validate    structure checks for the built-in Hopf algebras
  actions     closed partial-action families, verified symbolically
  coactions   closed partial-coaction families, verified symbolically
  classify    re-derive the action families by constraint propagation
  identities  q-binomial and root-of-unity identity sweeps
  duality     dual-basis isomorphisms and transport of actions to coactions
  export      write a built-in algebra in the JSON interchange format
  import      read a JSON algebra back and validate it

`actions` and `coactions` have one handler, `cmd_families`; the parser sets
its `kind`.  `duality` pairs each action family with its coaction by the
order of the two `families` listings (`_transport_pairs`), and the
identity sweep tallies the verdicts of one generator, `identity_verdicts`.

A process loads only the layers its subcommand runs.  This module imports
what start-up and argument parsing need (`algebras`, `exact_arith`,
`hopf_core`); each handler imports its own layer (`families`, `classify`,
`duality`, `reference_tables`) when it starts, only `import` and
`--paper-examples` load the expression parser `expr`, and only a process
that builds a Taft algebra or sweeps the identities loads `qcomb`.
A handler reads each layer function off its module when it runs, never at
import, so a wrapper bound onto the module later (a test's counter, the
benchmark's tracer) sees every call.
Without a bytecode cache every process compiles each module it imports, so
`validate` no longer pays for the classifier.  The package's records are
namedtuples and `__slots__` classes, so no process imports `dataclasses`
(and through it `inspect`) or `typing`.

Exit status is 0 when every check passes, 1 when a mathematical check
fails, 2 for usage or input errors, and 3 when the classifier does not
support the input (e.g. a search beyond its branch limit).  When the
reader closes stdout early (``| head``), the command stops and exits 141,
the status of a process ended by SIGPIPE, with nothing on stderr.
`--output json` emits one stable JSON document on stdout instead of the
text report; for exit 3 it is {"command", "ok": false, "unsupported"},
with "results" for the orders classified before the unsupported one.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from math import isqrt

from .algebras import (
    InvalidOrder, dual_group_algebra_cyclic, group_algebra_cyclic, nichols,
    taft,
)
from .exact_arith import CycNumber, divisors, zeta_pow
from .hopf_core import (
    MAX_DIM, MAX_ORDER, HopfFormatError, HopfValidationError, from_json_dict,
    to_json_dict, validate_all,
)

_BUILDERS = {
    "taft": taft,
    "nichols": nichols,
    "group": group_algebra_cyclic,
    "dualgroup": dual_group_algebra_cyclic,
}

# The largest order each builder accepts: the builders refuse dim > MAX_DIM
# and order > MAX_ORDER, and taft(n), nichols(n), kC_n and (kC_n)^* have dim
# n^2, 2^n, n and n.
_LARGEST_ORDER = {
    "taft": isqrt(MAX_DIM), "nichols": MAX_DIM.bit_length() - 1,
    "group": min(MAX_DIM, MAX_ORDER), "dualgroup": min(MAX_DIM, MAX_ORDER),
}

_VALIDATE_RANGE = {
    "taft": (2, 8), "nichols": (2, 6), "group": (1, 12), "dualgroup": (1, 12),
}
_FAMILY_RANGE = {
    "taft": (2, 6), "nichols": (2, 5), "group": (1, 12), "dualgroup": (1, 12),
}
_CLASSIFY_RANGE = {
    "taft": (2, 8), "nichols": (2, 5), "group": (1, 12), "dualgroup": (1, 12),
}
_DUALITY_RANGE = {"taft": (2, 6), "nichols": (2, 5)}

# The listing functions of ``families``, by name: a handler looks each up
# on the module when it runs, so that layer loads only when a sweep needs it.
_ACTION_LISTS = {
    "taft": "taft_action_families",
    "nichols": "nichols_action_families",
    "group": "group_action_families",
    "dualgroup": "dual_group_action_families",
}
_COACTION_LISTS = {
    "taft": "taft_coaction_families",
    "nichols": "nichols_coaction_families",
}


class UsageError(ValueError):
    """A command-line value or setting outside its documented range."""


def _orders(args, ranges) -> list:
    lo, hi = ranges[args.algebra]
    if args.n is not None:
        if args.max is not None:
            raise UsageError("give an order n or --max, not both")
        return [args.n]
    if args.max is not None:
        hi = args.max
    if hi < lo:
        raise InvalidOrder("--max %d is below the smallest order %d for %s"
                           % (hi, lo, args.algebra))
    top = _LARGEST_ORDER[args.algebra]
    if hi > top:
        raise InvalidOrder("--max %d is above the largest order %d for %s"
                           % (hi, top, args.algebra))
    return list(range(lo, hi + 1))


def _values(coords, basis) -> dict:
    out = {}
    for label, c in zip(basis, coords):
        if not c.is_zero():
            out[label] = c.render("q")
    return out


def _emit(args, doc, lines) -> int:
    if args.output == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if doc["ok"] else 1


def cmd_validate(args) -> int:
    build = _BUILDERS[args.algebra]
    results, lines, ok = [], [], True
    for n in _orders(args, _VALIDATE_RANGE):
        H = build(n)
        rep = validate_all(H)
        ok = ok and rep.ok
        results.append({"algebra": args.algebra, "n": n, "dim": H.dim,
                        "ok": rep.ok, "checks": rep.checks_run,
                        "failures": [str(f) for f in rep.failures]})
        lines.append(rep.summary())
    doc = {"command": "validate", "ok": ok, "results": results}
    return _emit(args, doc, lines)


def _reference_section(results, lines) -> bool:
    from .reference_tables import reference_checks
    ok = True
    for name, diffs in reference_checks():
        results.append({"table": name, "mismatches": diffs})
        if diffs:
            ok = False
            lines.append("reference table %s: MISMATCH" % name)
            lines.extend("  " + d for d in diffs)
        else:
            lines.append("reference table %s: match" % name)
    return ok


def cmd_families(args) -> int:
    """Verify every ``args.kind`` family of the swept orders, plain and
    symmetric."""
    from . import families
    lists = _ACTION_LISTS if args.kind == "action" else _COACTION_LISTS
    listing = getattr(families, lists[args.algebra])
    verify = getattr(families, "verify_partial_" + args.kind)
    results, lines, ok = [], [], True
    for n in _orders(args, _FAMILY_RANGE):
        fams = listing(n)
        lines.append("%s(%d): %d %s families" % (args.algebra, n, len(fams),
                                                 args.kind))
        for fam in fams:
            H = fam.algebra
            rep, srep = verify(H, fam.values)
            good = rep.ok and srep.ok
            ok = ok and good
            vals = _values(fam.values, H.basis)
            results.append({
                "algebra": args.algebra, "n": n, "family": fam.name,
                "params": list(fam.params), "values": vals, "verified": good,
                "checks": rep.checks_run + srep.checks_run,
            })
            lines.append("  %s [params: %s] %s" % (
                fam.name, ", ".join(fam.params) or "none",
                "ok" if good else "FAILED"))
            for f in rep.failures + srep.failures:
                lines.append("    " + str(f))
            for label, expr in vals.items():
                lines.append("    %s: %s" % (label, expr))
    doc = {"command": args.kind + "s", "ok": ok, "results": results}
    if args.paper_examples:
        refs = []
        doc["reference_tables"] = refs
        doc["ok"] = _reference_section(refs, lines) and doc["ok"]
    return _emit(args, doc, lines)


def cmd_classify(args) -> int:
    """Classify every swept order.  At the first order the solver does not
    support, stop: report the reason, and the orders already classified
    under "results" when there are any, and exit 3."""
    from .classify import SolverUnsupported, classify_base_field_actions
    build = _BUILDERS[args.algebra]
    results, lines, unsupported = [], [], None
    for n in _orders(args, _CLASSIFY_RANGE):
        H = build(n)
        try:
            out = classify_base_field_actions(H)
        except SolverUnsupported as exc:
            unsupported = str(exc)
            break
        lines.append("%s(%d): %d families in %d branches (exhaustive)"
                     % (args.algebra, n, len(out.families),
                        out.branches_explored))
        fams = []
        for fam in out.families:
            vals = _values(fam.values, H.basis)
            fams.append({"family": fam.name, "params": list(fam.params),
                         "values": vals, "trace": list(fam.trace)})
            lines.append("  %s [params: %s]" % (
                fam.name, ", ".join(fam.params) or "none"))
            for label, expr in vals.items():
                lines.append("    %s: %s" % (label, expr))
            lines.append("    trace:")
            for step in fam.trace:
                lines.append("      " + step)
        results.append({"algebra": args.algebra, "n": n,
                        "branches": out.branches_explored,
                        "exhaustive": True, "families": fams})
    if unsupported is None:
        return _emit(args, {"command": "classify", "ok": True,
                            "results": results}, lines)
    doc = {"command": "classify", "ok": False, "unsupported": unsupported}
    if results:
        doc["results"] = results
    _emit(args, doc, lines)
    if args.output != "json":
        print("error: solver unsupported: %s" % unsupported, file=sys.stderr)
    return 3


def _transport_pairs(algebra: str, n: int):
    """Each action family of ``algebra``(n) with the coaction family that
    transport along H* -> H makes of it, from the two listings.  Both end
    in the parametric family; the closed families before it pair in
    reverse order, since the indicator of the subgroup of index k goes to
    the average over the subgroup of order k."""
    from . import families
    acts = getattr(families, _ACTION_LISTS[algebra])(n)
    coacts = getattr(families, _COACTION_LISTS[algebra])(n)
    return zip(acts, coacts[-2::-1] + coacts[-1:])


def cmd_duality(args) -> int:
    from . import duality
    results, lines, ok = [], [], True
    for n in _orders(args, _DUALITY_RANGE):
        iso = getattr(duality, args.algebra + "_to_dual")(n)
        inv = getattr(duality, args.algebra + "_from_dual")(n)
        pairs = _transport_pairs(args.algebra, n)
        lines.append("%s(%d):" % (args.algebra, n))
        checks = []
        pair = duality.verify_inverse_pair(iso, inv)
        for tag, rep in (("to-dual morphism", pair.phi),
                         ("from-dual morphism", pair.psi)):
            ok = ok and rep.ok
            checks.append({"check": tag, "ok": rep.ok,
                           "failures": [str(f) for f in rep.failures]})
            if rep is pair.psi and pair.derived:
                how = "inverse of the verified to-dual morphism"
            else:
                how = "%d checks" % rep.checks_run
            lines.append("  %s: %s (%s)" % (
                tag, "ok" if rep.ok else "FAILED", how))
        ok = ok and pair.round_trip
        checks.append({"check": "round trip identity",
                       "ok": pair.round_trip})
        lines.append("  round trip identity: %s"
                     % ("ok" if pair.round_trip else "FAILED"))
        for act, expected in pairs:
            z = duality.transport(act, inv)
            match = z.values == expected.values
            ok = ok and match
            vals = _values(z.values, z.algebra.basis)
            checks.append({"check": "transport %s -> %s"
                           % (act.name, expected.name), "ok": match,
                           "values": vals})
            lines.append("  phi(%s) -> %s: %s"
                         % (act.name, expected.name,
                            "match" if match else "MISMATCH"))
            for label, expr in vals.items():
                lines.append("    %s: %s" % (label, expr))
        results.append({"algebra": args.algebra, "n": n, "checks": checks})
    doc = {"command": "duality", "ok": ok, "results": results}
    return _emit(args, doc, lines)


def _sweep_qs(root_cap: int) -> list:
    """The q specs of the sweep, the generic q first."""
    from .qcomb import generic_q
    qs = [generic_q()]
    qs += [CycNumber.from_rational(1, a, b)
           for a, b in ((2, 1), (3, 1), (5, 7))]
    qs += [zeta_pow(m, 1) for m in range(2, root_cap + 1)]
    return qs


def _q_instances(max_index: int) -> list:
    """Every instance of the q-identities, as (check, args): its verdict
    at q is ``check(*args, q)``."""
    from . import qcomb
    pascal, identity = qcomb.check_pascal, qcomb.check_identity
    out = []
    for variant in qcomb.PASCAL_VARIANTS:
        for i in range(1, max_index + 5):
            for s in range(-2, max_index + 7):
                out.append((pascal, (variant, i, s)))
    bound = max_index + 1
    for i in range(bound):
        for t in range(bound):
            for k in range(bound):
                out.append((identity, ("alternating_vandermonde",
                                       (i, t, k))))
    for j in range(max_index + 3):
        for i in range(j + 1):
            for l in range(i + 1):
                out.append((identity, ("trinomial_revision", (j, i, l))))
    for i in range(max_index):
        for j in range(max_index):
            for t in range(max_index):
                for s in range(max_index):
                    out.append((identity, ("four_index_inversion",
                                           (i, j, t, s))))
    for j in range(max_index):
        for t in range(max_index):
            for s in range(max_index):
                out.append((identity, ("binomial_inversion", (j, t, s))))
    return out


def identity_verdicts(max_index: int, root_cap: int):
    """Every verdict of the identity sweep, in order: each q instance under
    each q spec, q spec major, then the character sums.

    A q instance is checked under every q spec, not only at the generic q
    (whose verdict already decides every spec, as the ``qcomb`` module
    docstring shows), so the sweep also exercises the rational and
    cyclotomic arithmetic of each spec.
    """
    instances = _q_instances(max_index)
    for q in _sweep_qs(root_cap):
        for check, args in instances:
            yield check(*args, q)
    if max_index:
        # only a sweep with character sums loads their layer
        from .duality import check_character_sum
        for m in range(1, 2 * max_index + 1):
            for k in divisors(m):
                yield check_character_sum(m, k, m // k)


def run_identity_sweep(max_index: int, root_cap: int):
    """Run the sweep, returning (per-suite counts, failure strings) of
    ``identity_verdicts``."""
    counts: dict = {}
    failures = []
    for v in identity_verdicts(max_index, root_cap):
        total, bad = counts.get(v.name, (0, 0))
        counts[v.name] = (total + 1, bad + (not v.ok))
        if not v.ok:
            failures.append(str(v))
    return counts, failures


# The largest --max and --n of the identity sweep (defaults 6 and 8): it
# checks about max^4 q instances, each under 3 + n q specs, so the work
# grows without bound in both.
_IDENTITY_MAX_LIMIT = 8
_IDENTITY_N_LIMIT = 16


def cmd_identities(args) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1, got %d" % args.jobs)
    max_index = args.max if args.max is not None else 6
    root_cap = args.n if args.n is not None else 8
    for flag, value, lo, hi in (("--n", root_cap, 1, _IDENTITY_N_LIMIT),
                                ("--max", max_index, 0, _IDENTITY_MAX_LIMIT)):
        if not lo <= value <= hi:
            bound = "at least %d" % lo if value < lo else "at most %d" % hi
            raise UsageError("%s must be %s, got %d" % (flag, bound, value))
    counts, failures = run_identity_sweep(max_index, root_cap)
    results, lines = [], []
    for name in sorted(counts):
        total, bad = counts[name]
        results.append({"suite": name, "instances": total, "failed": bad})
        lines.append("%s: %d instances %s"
                     % (name, total, "ok" if bad == 0 else "%d FAILED" % bad))
    ok = not failures
    lines.extend("  " + f for f in failures[:50])
    grand = sum(t for t, _ in counts.values())
    lines.append("%s (%d instances, %d q-specs)"
                 % ("all identity suites pass" if ok
                    else "identity sweep FAILED", grand, 3 + root_cap))
    doc = {"command": "identities", "ok": ok, "results": results,
           "failures": failures}
    return _emit(args, doc, lines)


def cmd_export(args) -> int:
    H = _BUILDERS[args.algebra](args.n)
    text = json.dumps(to_json_dict(H), indent=2, sort_keys=True)
    if args.path in (None, "-"):
        print(text)
    else:
        with open(args.path, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_import(args) -> int:
    try:
        if args.path == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.path, encoding="utf-8") as fh:
                data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise HopfFormatError("input is not UTF-8: %s" % exc) from None
    except RecursionError:
        raise HopfFormatError("JSON input nests too deeply") from None
    except ValueError as exc:
        # JSONDecodeError, or an integer beyond int's string-digit limit
        raise HopfFormatError("invalid JSON input: %s" % exc) from None
    H = from_json_dict(data)
    doc = {"command": "import", "ok": True,
           "results": [{"name": H.name, "dim": H.dim, "order": H.order}]}
    lines = ["%s: dim %d, scalar ring of order %d, valid"
             % (H.name, H.dim, H.order)]
    return _emit(args, doc, lines)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="partial-hopf",
        description="Exact verification and classification of partial "
                    "(co)actions of finite-dimensional Hopf algebras on "
                    "their base field.")
    sub = p.add_subparsers(dest="command", required=True)

    def algebra_cmd(name, func, helptext, algebras):
        q = sub.add_parser(name, help=helptext)
        q.add_argument("algebra", choices=algebras)
        q.add_argument("n", type=int, nargs="?", default=None,
                       help="single order (default: a standard sweep)")
        q.add_argument("--max", type=int, default=None,
                       help="upper bound of the sweep when n is omitted")
        q.add_argument("--output", choices=("text", "json"), default="text")
        q.set_defaults(func=func)
        return q

    all_algebras = tuple(_BUILDERS)
    self_dual = tuple(_COACTION_LISTS)

    algebra_cmd("validate", cmd_validate,
                "run the Hopf axiom checks on built-in algebras",
                all_algebras)
    for kind, algebras in (("action", all_algebras),
                           ("coaction", self_dual)):
        q = algebra_cmd(kind + "s", cmd_families,
                        "list and verify the partial-%s families" % kind,
                        algebras)
        q.add_argument("--paper-examples", action="store_true",
                       help="also diff the embedded reference tables")
        q.set_defaults(kind=kind)
    algebra_cmd("classify", cmd_classify,
                "re-derive the action families from the axioms",
                all_algebras)
    algebra_cmd("duality", cmd_duality,
                "verify dual-basis isomorphisms and transport families",
                self_dual)

    q = sub.add_parser("identities",
                       help="sweep the q-binomial and character-sum "
                            "identities")
    q.add_argument("--n", type=int, default=None,
                   help="largest root-of-unity order to test (default 8, "
                        "at most %d)" % _IDENTITY_N_LIMIT)
    q.add_argument("--max", type=int, default=None,
                   help="index bound for the sweeps (default 6, at most %d)"
                        % _IDENTITY_MAX_LIMIT)
    q.add_argument("--jobs", type=int, default=1,
                   help="accepted and checked (an integer of at least 1), "
                        "but changes nothing: the sweep runs in one process")
    q.add_argument("--output", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_identities)

    q = sub.add_parser("export", help="write an algebra as JSON")
    q.add_argument("algebra", choices=all_algebras)
    q.add_argument("n", type=int)
    q.add_argument("path", nargs="?", default=None,
                   help="output file (default: stdout)")
    q.set_defaults(func=cmd_export)

    q = sub.add_parser("import", help="read and validate a JSON algebra")
    q.add_argument("path", help="input file, or - for stdin")
    q.add_argument("--output", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_import)
    return p


def _check_failures() -> tuple:
    """The exceptions that mean a mathematical check failed (exit 1).  A
    ``ClassificationError`` exists only once ``classify`` is loaded, so the
    classifier's class is read from the loaded modules and no other
    subcommand loads that layer to map its exceptions."""
    classify = sys.modules.get(__package__ + ".classify")
    if classify is None:
        return (HopfValidationError,)
    return (HopfValidationError, classify.ClassificationError)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that write go
        # nowhere instead of raising a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InvalidOrder, HopfFormatError, UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _check_failures() as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
