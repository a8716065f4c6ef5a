"""Self-test of the benchmark's tracer.  Run from the repository root:

    python3 bench/selftest.py

It checks, on small invocations of every subcommand the workloads use:

* wrapping misses no reference: after ``Tracer.install()`` no
  ``partial_hopf`` module name or module-level dict still holds an unwrapped
  public function, and ``CycNumber.__rmul__``/``ParamPoly.__rmul__`` are
  wrapped on their own;
* tracing changes no output: traced standard output and exit code equal
  the untraced ones;
* traced counts agree with the CLI's own JSON (``hopf_core.checks``,
  ``classify.branches``, ``qcomb.check.calls``);
* every count repeats exactly across two traced runs under one
  ``PYTHONHASHSEED`` and a third run under another.

Exits 0 when every check passes and 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from inputs import scramble  # noqa: E402
from run import (  # noqa: E402
    TRACER, WORK_DIR, child_env, cli_argv, count_mismatches, spawn)
from tracer import Tracer  # noqa: E402

INVOCATIONS = (
    ("validate", "taft", "4"),
    ("validate", "nichols", "3"),
    ("classify", "taft", "5"),
    ("classify", "dualgroup", "6"),
    ("actions", "taft", "4", "--paper-examples"),
    ("coactions", "nichols", "3"),
    ("duality", "taft", "4"),
    ("identities", "--n", "4", "--max", "3", "--jobs", "1"),
    ("import", "@taft3"),
    ("import", "@taft3-perturbed"),
)
HASH_SEEDS = ("1", "1", "77")


def check_wrapping() -> list:
    sys.path.insert(0, os.path.abspath("src"))
    tracer = Tracer()
    tracer.install()
    originals = {id(fn): name for name, fn in tracer.originals.items()}
    problems = []
    for modname, mod in sys.modules.items():
        if not modname.startswith("partial_hopf"):
            continue
        for name, obj in vars(mod).items():
            values = obj.values() if isinstance(obj, dict) else (obj,)
            for val in values:
                if id(val) in originals:
                    problems.append("%s.%s still holds unwrapped %s"
                                    % (modname, name, originals[id(val)]))
    from partial_hopf.exact_arith import CycNumber, ParamPoly
    for cls in (CycNumber, ParamPoly):
        if cls.__rmul__ is cls.__mul__ or not hasattr(cls.__rmul__,
                                                      "__wrapped__"):
            problems.append("%s.__rmul__ is not wrapped on its own"
                            % cls.__name__)
    return problems


def check_invocations(work: str) -> list:
    res = spawn(cli_argv(["export", "taft", "3"]),
                os.path.join(work, "export.json"), child_env())
    good, bad = scramble(json.loads(res["stdout"]), 1)
    paths = {}
    for name, doc in (("@taft3", good), ("@taft3-perturbed", bad)):
        paths[name] = os.path.join(work, name[1:] + ".json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)

    problems = []
    for inv in INVOCATIONS:
        args = [paths.get(a, a) for a in inv] + ["--output", "json"]
        what = " ".join(inv)
        plain = spawn(cli_argv(args), os.path.join(work, "out.txt"),
                      child_env())
        if plain["exit"] != (1 if inv[-1].endswith("-perturbed") else 0):
            problems.append("%s: exit %d" % (what, plain["exit"]))
        summaries = []
        for hash_seed in HASH_SEEDS:
            summary_path = os.path.join(work, "summary.json")
            traced = spawn([sys.executable, TRACER, summary_path, *args],
                           os.path.join(work, "out.txt"),
                           child_env(hash_seed))
            if (traced["exit"], traced["stdout"]) != (plain["exit"],
                                                      plain["stdout"]):
                problems.append("%s: traced output differs" % what)
                break
            with open(summary_path) as fh:
                summary = json.load(fh)
            problems.extend("%s: %s" % (what, m) for m in count_mismatches(
                traced["stdout"], summary["counts"]))
            summaries.append((summary["counts"], summary["calls"]))
        for n, other in enumerate(summaries[1:], 1):
            if other != summaries[0]:
                problems.append("%s: counts under PYTHONHASHSEED=%s differ "
                                "from the first traced run"
                                % (what, HASH_SEEDS[n]))
        print("%-45s exit %d, %d traced runs" % (what, plain["exit"],
                                                 len(summaries)))
    return problems


def main() -> int:
    work = os.path.join(WORK_DIR, "selftest-%d" % os.getpid())
    os.makedirs(work)
    try:
        problems = check_wrapping() + check_invocations(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAILED: " + p)
    print("selftest %s" % ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
