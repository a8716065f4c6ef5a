"""Benchmark harness for partial-hopf.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N      # every workload
    python3 bench/run.py --record                     # refresh expected.json

Run from the repository root.  The package is a black box: every timed
operation is one fresh ``python -m partial_hopf.cli ... --output json``
process, run one at a time by a single closed-loop client, so at most two
processes are busy.  ``identities`` runs with ``--jobs 1`` and
``PARTIAL_HOPF_JOBS`` is removed from the child's environment.

A run sets up (exports the base algebras and writes the seed-scrambled
import files), then samples the workload's invocations in rounds until the
next sample would end after ``--seconds``; a fresh import of
``partial_hopf.cli`` is timed before each sample.  Each invocation's exit
code, ``ok`` field and standard output are checked against
``expected.json``; a mismatching sample is not used for timing.

The machine's speed changes by up to 1.5x from one half-minute to the next,
so every sample is bracketed by runs of ``calibrate.py`` (a fixed
pure-Python computation that uses no package code), one just before it and
one just after.  Reported times are reference seconds: the measured time
times ``CAL_REF_S`` divided by the geometric mean of the two calibration
times, i.e. about the time the sample would have taken had the calibration
run in exactly ``CAL_REF_S``.  Raw times are printed too.

With ``--trace 1`` the run makes one untraced pass and then samples every
invocation under ``tracer.py``; it reports the per-layer metrics,
cross-checks traced counts against the CLI's own JSON and requires every
count to repeat exactly across samples, which alternate ``PYTHONHASHSEED``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from inputs import scramble  # noqa: E402
from tracer import COUNT_METRICS, LAYERS  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
TRACER = os.path.join(BENCH_DIR, "tracer.py")
CALIBRATE = os.path.join(BENCH_DIR, "calibrate.py")
# Reference time of calibrate.py: about its median on a 2-vCPU Xeon VM when
# the host is quiet.  Reported times are scaled to this calibration speed.
CAL_REF_S = 0.16
WORK_DIR = ".bench_work"

# An argument "@name" is replaced by the path of the generated import file
# INPUTS[name]: a builder's export, scrambled from the seed ("-perturbed" is
# the negative control, which must be rejected with exit 1).
WORKLOADS = {
    "cyclotomic": (
        ("validate", "taft", "5"),
        ("duality", "taft", "5"),
        ("import", "@taft5"),
        ("import", "@taft5-perturbed"),
    ),
    "rational": (
        ("validate", "nichols"),
        ("classify", "nichols"),
        ("actions", "nichols"),
        ("coactions", "nichols"),
        ("duality", "nichols"),
        ("import", "@nichols6"),
    ),
    "classify": (
        ("classify", "dualgroup", "7"),
        ("classify", "taft", "7"),
        ("actions", "taft", "--paper-examples"),
        ("coactions", "taft"),
    ),
    "identities": (
        ("identities", "--n", "6", "--max", "5", "--jobs", "1"),
    ),
}
INPUTS = {"taft5": ("taft", "5"), "nichols6": ("nichols", "6")}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# Fewest set-up probes per run; one more is made before each timed sample.
SETUP_REPEATS = 7
# Traced passes alternate these hash seeds; counts must not depend on them.
TRACE_HASH_SEEDS = ("1", "77")


def label(args) -> str:
    return " ".join(args)


def child_env(hash_seed: str = "0") -> dict:
    env = dict(os.environ)
    env.pop("PARTIAL_HOPF_JOBS", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def spawn(argv, out_path, env) -> dict:
    """Run one child to completion; wall, CPU and peak RSS from wait4."""
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return {"exit": proc.returncode, "stdout": stdout, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def count_mismatches(stdout: bytes, counts: dict) -> list:
    """Traced counts that differ from the numbers the CLI reports itself."""
    if not stdout:
        return []
    doc = json.loads(stdout)
    pairs = []
    if doc["command"] == "validate":
        pairs.append(("hopf_core.checks",
                      sum(r["checks"] for r in doc["results"])))
    elif doc["command"] == "classify":
        pairs.append(("classify.branches",
                      sum(r["branches"] for r in doc["results"])))
    elif doc["command"] == "identities":
        by_suite = {r["suite"]: r["instances"] for r in doc["results"]}
        pairs.append(("duality.check_character_sum.calls",
                      by_suite.pop("character_sum", 0)))
        pairs.append(("qcomb.check.calls", sum(by_suite.values())))
    return ["traced %s = %d, CLI reports %d" % (name, counts[name], reported)
            for name, reported in pairs if counts[name] != reported]


def cli_argv(args) -> list:
    return [sys.executable, "-m", "partial_hopf.cli", *args]


class Run:
    """One benchmark run: its set-up files, samples and results."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.paths: dict = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self.setup_samples: list = []
        self.calibrations: list = []
        # samples[traced][invocation index] -> list of spawn results
        self.samples = {flag: {n: [] for n in range(len(WORKLOADS[workload]))}
                        for flag in (False, True)}

    # -- set-up -----------------------------------------------------------

    def make_inputs(self):
        wanted = {a[1:].replace("-perturbed", "")
                  for inv in WORKLOADS[self.workload] for a in inv
                  if a.startswith("@")}
        for name in sorted(wanted):
            algebra, n = INPUTS[name]
            base = os.path.join(self.work, name + "-export.json")
            res = spawn(cli_argv(["export", algebra, n]), base, child_env())
            if res["exit"] != 0:
                raise RuntimeError("export %s %s exited %d"
                                   % (algebra, n, res["exit"]))
            good, bad = scramble(json.loads(res["stdout"]), self.seed)
            for suffix, doc in (("", good), ("-perturbed", bad)):
                path = os.path.join(self.work, name + suffix + ".json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                self.paths["@" + name + suffix] = path

    def argv_for(self, inv) -> list:
        return [self.paths.get(a, a) for a in inv] + ["--output", "json"]

    # -- checking ---------------------------------------------------------

    def check(self, inv, res, expected) -> bool:
        want = expected.get(label(inv))
        if want is None:
            self.messages.append("no expected output for %r" % label(inv))
            return False
        sha = hashlib.sha256(res["stdout"]).hexdigest()
        ok_field = None
        if res["stdout"]:
            try:
                ok_field = json.loads(res["stdout"]).get("ok")
            except ValueError:
                ok_field = "unparsable"
        if (res["exit"], sha, ok_field) != (want["exit"], want["sha256"],
                                            want["ok"]):
            self.messages.append(
                "%r: exit %d ok %r sha256 %s, expected exit %d ok %r "
                "sha256 %s" % (label(inv), res["exit"], ok_field, sha[:12],
                               want["exit"], want["ok"], want["sha256"][:12]))
            return False
        return True

    # -- sampling ---------------------------------------------------------

    def calibrate(self):
        """Time one run of calibrate.py in a fresh interpreter.  Samples
        taken until the next calibration refer to this one."""
        res = spawn([sys.executable, CALIBRATE],
                    os.path.join(self.work, "calibrate.txt"), child_env())
        if res["exit"] != 0:
            raise RuntimeError("calibrate.py failed")
        self.calibrations.append(res)

    def reference(self, res, key) -> float:
        """``res[key]`` in reference seconds, scaled by the geometric mean
        of the calibrations just before and just after ``res``."""
        before, after = self.calibrations[res["cal"]:res["cal"] + 2]
        return res[key] * CAL_REF_S / math.sqrt(before[key] * after[key])

    def invoke(self, n, inv, expected, traced=False, hash_seed="0"):
        """Run invocation ``n`` once and keep its sample."""
        out = os.path.join(self.work, "stdout.txt")
        summary_path = os.path.join(self.work, "trace.json")
        argv = cli_argv(self.argv_for(inv))
        if traced:
            argv = [sys.executable, TRACER, summary_path,
                    *self.argv_for(inv)]
        res = spawn(argv, out, child_env(hash_seed))
        self.attempted += 1
        res["good"] = self.check(inv, res, expected)
        res["cal"] = len(self.calibrations) - 1
        if res["good"] and traced:
            with open(summary_path) as fh:
                res.update(json.load(fh))
            wrong = count_mismatches(res["stdout"], res["counts"])
            self.messages.extend("%r: %s" % (label(inv), w) for w in wrong)
            res["good"] = not wrong
        if not res["good"]:
            self.failed += 1
        del res["stdout"]
        self.samples[traced][n].append(res)

    def sweep(self, seconds, expected, traced=False):
        """One full pass over the invocations, then more rounds in the same
        order; after the first pass an invocation is sampled only if its
        last duration still fits before ``seconds``.  Stops when a round
        samples nothing.  A calibration precedes every sample and one more
        ends the sweep."""
        invs = WORKLOADS[self.workload]
        start = time.perf_counter()
        for rnd in itertools.count():
            sampled = False
            for n, taken in self.samples[traced].items():
                left = seconds - (time.perf_counter() - start)
                if rnd and taken[-1]["wall"] > left:
                    continue
                self.calibrate()
                if traced:
                    hash_seed = TRACE_HASH_SEEDS[len(taken) % 2]
                else:
                    hash_seed = "0"
                    self.probe_setup()
                self.invoke(n, invs[n], expected, traced, hash_seed)
                sampled = True
            if not sampled:
                self.calibrate()
                return

    def probe_setup(self):
        """Time one fresh interpreter importing ``partial_hopf.cli``.
        Probes are spread over the run, one before each timed sample, and
        share that sample's calibrations."""
        res = spawn([sys.executable, "-c", "import partial_hopf.cli"],
                    os.path.join(self.work, "setup.txt"), child_env())
        if res["exit"] != 0:
            raise RuntimeError("importing partial_hopf.cli failed")
        res["cal"] = len(self.calibrations) - 1
        self.setup_samples.append(res)

    def median_sum(self, key, traced=False, raw=False) -> float:
        """Per-invocation medians of ``key`` in reference seconds (or as
        measured, if ``raw``), summed over the workload.  Samples whose
        output was wrong are left out when others exist."""
        total = 0.0
        for taken in self.samples[traced].values():
            taken = [s for s in taken if s["good"]] or taken
            total += statistics.median(
                s[key] if raw else self.reference(s, key) for s in taken)
        return total


def environment(args, workload, work) -> dict:
    probe = ("import partial_hopf, partial_hopf.cli\n"
             "R = getattr(partial_hopf, 'Rational', None)\n"
             "t = type(R(0)) if R else None\n"
             "print(t.__module__ + '.' + t.__qualname__ if t else 'none')\n")
    res = spawn([sys.executable, "-c", probe],
                os.path.join(work, "env.txt"), child_env())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"python": platform.python_version(),
            "scalar_backend": res["stdout"].decode().strip() or "unknown",
            "nproc": os.cpu_count(), "seed": args.seed,
            "commit": commit or "unknown (not a git checkout)",
            "workload": workload, "trace": args.trace,
            "seconds": args.seconds}


def bench_workload(workload, args, expected, work) -> tuple:
    """Set up and measure one workload; return (run, metrics, env)."""
    run = Run(workload, args.seed, work)
    run.make_inputs()
    env = environment(args, workload, work)
    if not args.trace:
        run.sweep(args.seconds, expected)
        while len(run.setup_samples) < SETUP_REPEATS:
            run.probe_setup()
            run.calibrate()
        metrics = {
            "wall_s": run.median_sum("wall"),
            "cpu_s": run.median_sum("cpu"),
            "setup_s": statistics.median(run.reference(s, "wall")
                                         for s in run.setup_samples),
            "peak_rss_mb": max(s["rss_mb"] for taken in
                               run.samples[False].values() for s in taken),
        }
        env["samples"] = [len(t) for t in run.samples[False].values()]
        env["raw_wall_s"] = run.median_sum("wall", raw=True)
        env["raw_cpu_s"] = run.median_sum("cpu", raw=True)
        env["calibration_s"] = statistics.median(
            c["wall"] for c in run.calibrations)
        return run, {k: (v, END_TO_END_UNITS[k]) for k, v in
                     metrics.items()}, env

    start = time.perf_counter()
    run.sweep(0, expected)
    run.sweep(args.seconds - (time.perf_counter() - start), expected,
              traced=True)
    traced = run.samples[True]
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for n, taken in traced.items():
        if not taken[0]["good"]:
            continue
        for name in COUNT_METRICS:
            counts[name] += taken[0]["counts"][name]
        for s in taken[1:]:
            if s["good"] and s["counts"] != taken[0]["counts"]:
                run.failed += 1
                run.messages.append(
                    "%r: traced counts differ between samples"
                    % label(WORKLOADS[workload][n]))
    overhead = run.median_sum("wall", traced=True) - run.median_sum("wall")
    metrics = {name: (counts[name], "count") for name in COUNT_METRICS}
    branches = counts["classify.branches"]
    metrics["classify.useful_ratio"] = (
        counts["classify.families"] / branches if branches else 0.0, "ratio")
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (sum(
            statistics.median(s["self_s"][layer] for s in taken)
            for taken in traced.values()), "s")
    metrics["trace_overhead_s"] = (overhead, "s")
    env["samples"] = [len(t) for t in traced.values()]
    env["trace_overhead_s"] = overhead
    env["calibration_s"] = statistics.median(
        c["wall"] for c in run.calibrations)
    with open(os.path.join(WORK_DIR, "spans-%s-seed%d.json"
                           % (workload, args.seed)), "w") as fh:
        json.dump({label(WORKLOADS[workload][n]): taken[-1].get("spans")
                   for n, taken in traced.items()}, fh)
    return run, metrics, env


def record(args, work):
    """Write expected.json from one run of every invocation."""
    expected = {}
    for workload in WORKLOADS:
        run = Run(workload, args.seed, work)
        run.make_inputs()
        for n, inv in enumerate(WORKLOADS[workload]):
            res = spawn(cli_argv(run.argv_for(inv)),
                        os.path.join(work, "stdout.txt"), child_env())
            ok = json.loads(res["stdout"])["ok"] if res["stdout"] else None
            expected[label(inv)] = {
                "exit": res["exit"], "ok": ok,
                "sha256": hashlib.sha256(res["stdout"]).hexdigest()}
            print("%-45s exit %d ok %s" % (label(inv), res["exit"], ok))
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=tuple(WORKLOADS) + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from the current program")
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "partial_hopf", "cli.py")):
        print("error: run from the repository root; src/partial_hopf is "
              "missing", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, "run-%d" % os.getpid())
    os.makedirs(work)
    try:
        if args.record:
            record(args, work)
            return 0
        with open(EXPECTED_PATH) as fh:
            expected = json.load(fh)
        workloads = list(WORKLOADS) if args.workload == "all" else [
            args.workload]
        attempted = failed = 0
        result_metrics = {}
        for workload in workloads:
            run, metrics, env = bench_workload(workload, args, expected,
                                               work)
            attempted += run.attempted
            failed += run.failed
            print("environment: " + json.dumps(env, sort_keys=True))
            for msg in run.messages:
                print("FAILED: " + msg)
            for name, (value, unit) in metrics.items():
                print("%-12s %-38s %14.6g %s" % (workload, name, value,
                                                 unit))
            if not args.trace:
                print("%-12s %-38s %14.6g ratio (%d of %d invocations)"
                      % (workload, "failed_ratio",
                         run.failed / run.attempted, run.failed,
                         run.attempted))
            prefix = "" if len(workloads) == 1 else workload + "."
            for name, (value, unit) in metrics.items():
                result_metrics[prefix + name] = {"value": value,
                                                 "unit": unit}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": result_metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
