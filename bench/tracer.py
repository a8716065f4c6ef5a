"""Per-layer tracing of one partial-hopf CLI invocation, from outside the
package.

Run as ``python bench/tracer.py SUMMARY.json CLI-ARGS...`` with ``src`` on
``PYTHONPATH``.  It imports ``partial_hopf.cli``, wraps the public functions
and methods of every layer module, runs ``cli.main(CLI-ARGS)`` in-process,
writes a JSON summary to SUMMARY.json and exits with the CLI's exit code.
Standard output is the CLI's own, so the harness checks it as usual.

Nothing under ``src/`` is edited.  The modules bind each other's names with
``from .x import y``, so a wrapper replaces the original in every
``partial_hopf`` module namespace and in module-level dicts (the CLI keeps
builders in tables such as ``_BUILDERS``).  Methods are replaced on their
class, and ``__rmul__``/``__radd__`` are wrapped separately from the
``__mul__``/``__add__`` they alias.

Every wrapped call counts and feeds its layer's self time: the call's
duration minus the time covered by wrapped calls nested in it.  Calls to
the module-level functions of the coarse layers also record a span (name,
start, end, parent span).  The scalar layers and methods such as
``Report.count`` run 10^5-10^6 times per invocation, so they only count and
time in aggregate.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from importlib import import_module

LAYERS = ("exact_arith", "expr", "qcomb", "hopf_core", "algebras",
          "families", "duality", "classify", "reference_tables", "cli")
# Layers whose calls are counted and timed but get no span records.
AGGREGATE_LAYERS = ("exact_arith", "qcomb")
# Dunder methods that carry arithmetic; other dunders (hash, eq, repr,
# dataclass plumbing) are left alone.
ARITH_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__"))
BUILDERS = ("taft", "nichols", "group_algebra_cyclic",
            "dual_group_algebra_cyclic")
# Counted metrics: the wrapped callables whose calls each one sums.
CALL_COUNTS = {
    "exact_arith.cyc_mul.calls": ("exact_arith.CycNumber.__mul__",
                                  "exact_arith.CycNumber.__rmul__"),
    "exact_arith.cyc_invert.calls": ("exact_arith.cyc_invert",),
    "exact_arith.poly_mul.calls": ("exact_arith.ParamPoly.__mul__",
                                   "exact_arith.ParamPoly.__rmul__"),
    "exact_arith.poly_subs.calls": ("exact_arith.ParamPoly.subs",),
    "hopf_core.validate_all.calls": ("hopf_core.validate_all",),
    "expr.parse_scalar.calls": ("expr.parse_scalar",),
    "families.instance_residual.calls": ("families.instance_residual",),
    "families.verify.calls": ("families.verify_partial_action",
                              "families.verify_partial_coaction"),
    "duality.verify_hopf_morphism.calls": ("duality.verify_hopf_morphism",),
    "duality.transport.calls": ("duality.transport",),
    "duality.check_character_sum.calls": ("duality.check_character_sum",),
    "qcomb.check.calls": ("qcomb.check_pascal", "qcomb.check_identity"),
    "qcomb.laurent_mul.calls": ("qcomb.QLaurent.__mul__",
                                "qcomb.QLaurent.__rmul__"),
    "cli.invocations": ("cli.main",),
}
# Counted metrics read from call arguments or results.
HOOK_COUNTS = ("exact_arith.cyc_mul.coord_products", "hopf_core.checks",
               "classify.branches", "classify.families")
COUNT_METRICS = tuple(CALL_COUNTS) + HOOK_COUNTS + ("algebras.build.calls",)


def _nnz(x) -> int:
    coords = getattr(x, "coords", None)
    if coords is None:
        return 1 if x else 0
    return sum(1 for c in coords if c)


class Tracer:
    """Wraps the package's layers in one process and accumulates counts,
    per-layer self time and spans."""

    def __init__(self):
        self.counts: dict = {}
        self.self_s = {layer: [0.0] for layer in LAYERS}
        self.extra = dict.fromkeys(HOOK_COUNTS, 0)
        self.spans: list = []
        # one frame per active wrapped call: [seconds in nested calls, span id]
        self.stack: list = [[0.0, None]]
        self.originals: dict = {}

    # -- hooks that read a call's arguments or result --------------------

    def _coord_products(self, args, result):
        if result is not NotImplemented:
            self.extra["exact_arith.cyc_mul.coord_products"] += (
                _nnz(args[0]) * _nnz(args[1]))

    def _checks(self, args, result):
        self.extra["hopf_core.checks"] += result.checks_run

    def _classified(self, args, result):
        self.extra["classify.branches"] += result.branches_explored
        self.extra["classify.families"] += len(result.families)

    def _hook_for(self, qualname):
        return {
            "exact_arith.CycNumber.__mul__": self._coord_products,
            "exact_arith.CycNumber.__rmul__": self._coord_products,
            "hopf_core.validate_all": self._checks,
            "classify.classify_base_field_actions": self._classified,
        }.get(qualname)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str, span: bool = False):
        perf = time.perf_counter
        stack = self.stack
        spans = self.spans if span else None
        acc = self.self_s[layer]
        count = self.counts.setdefault(qualname, [0])
        hook = self._hook_for(qualname)

        def traced(*args, **kwargs):
            count[0] += 1
            parent = stack[-1][1]
            frame = [0.0, parent]
            if spans is not None:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                acc[0] += dt - frame[0]
                if spans is not None:
                    spans[frame[1]] = (qualname, t0, t1, parent)

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every layer's public callables and rebind all references."""
        replace: dict = {}
        for layer in LAYERS:
            mod = import_module("partial_hopf." + layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif callable(obj):
                    replace[id(obj)] = self._wrap(
                        obj, layer, layer + "." + name,
                        span=layer not in AGGREGATE_LAYERS)
                    self.originals[layer + "." + name] = obj
        for modname, mod in list(sys.modules.items()):
            if modname != "partial_hopf" and not modname.startswith(
                    "partial_hopf."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, name, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replace:
                            obj[key] = replace[id(val)]

    def _wrap_class(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITH_DUNDERS:
                continue
            qualname = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(
                    self._wrap(attr.__func__, layer, qualname)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(
                    self._wrap(attr.__func__, layer, qualname)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, qualname))

    # -- results ----------------------------------------------------------

    def calls(self, *qualnames) -> int:
        return sum(self.counts.get(q, [0])[0] for q in qualnames)

    def builds(self) -> int:
        """Builder executions: cache misses of the lru_cached builders, or
        plain calls if a builder is not cached."""
        total = 0
        for name in BUILDERS:
            fn = self.originals["algebras." + name]
            info = getattr(fn, "cache_info", None)
            total += info().misses if info else self.calls(
                "algebras." + name)
        return total

    def summary(self) -> dict:
        counts = {metric: self.calls(*qualnames)
                  for metric, qualnames in CALL_COUNTS.items()}
        counts.update(self.extra)
        counts["algebras.build.calls"] = self.builds()
        return {
            "counts": counts,
            "self_s": {layer: acc[0] for layer, acc in self.self_s.items()},
            "calls": {q: c[0] for q, c in sorted(self.counts.items())},
            "spans": [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3]}
                      for i, s in enumerate(self.spans) if s is not None],
        }


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    cli = import_module("partial_hopf.cli")
    tracer = Tracer()
    tracer.install()
    rc = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
