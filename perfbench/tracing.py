"""Spans and counters around the package's public functions, installed from
the benchmark's side (the program itself carries no instrumentation).

Every public function of each module becomes a span named
``<module>.<function>``; the CLI subcommands become ``cli.<command>``.  The
per-word methods (``sup``, ``inf``, ``at_periodic`` of each potential family,
``RPFEquilibrium.mass``) and ``log_sum_exp`` are too frequent for one span per
call and are aggregated into counters.  Because modules import each other's
functions by name (``pressure.power_iteration``, ``measures.dominant_pair``,
``cli.best_pressure``), every module attribute bound to a wrapped function is
patched, and restored on exit.

Self time is a call's duration minus the time of the wrapped calls nested in
it, counters included.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("cli", "shifts", "potentials", "pressure", "measures", "zerotemp",
           "linalg")
FAMILIES = ("LocallyConstant", "DecayPotential", "MatrixCocycle", "AffinePotential")
PER_WORD = ("sup", "inf", "at_periodic")
COUNTS = ("shifts.words_enumerated", "shifts.orbits_enumerated",
          "pressure.block_states", "linalg.power_iteration.dim_sum",
          "pressure.transfer_ok", "shifts.connectors_found",
          "measures.from_weights.keys", "linalg.log_sum_exp.values",
          "cli.nonzero_exits")


def _extra_counts(name: str, args, kwargs, result, counts) -> None:
    """Work counts read off a call's arguments and return value."""
    if name == "shifts.admissible_words":
        counts["shifts.words_enumerated"] += len(result)
    elif name == "shifts.periodic_points":
        counts["shifts.orbits_enumerated"] += len(result)
    elif name == "pressure.weighted_block_matrix":
        counts["pressure.block_states"] += len(result[0])
    elif name == "linalg.power_iteration":
        counts["linalg.power_iteration.dim_sum"] += len(args[0])
    elif name == "pressure.transfer_pressure":
        counts["pressure.transfer_ok"] += 1
    elif name == "shifts.compact_approximation":
        counts["shifts.connectors_found"] += 2 * sum(len(c) for c in result.connectors)
    elif name == "measures.from_weights":
        # args[0] is the class: from_weights(cls, shift, depth, weights, ...)
        counts["measures.from_weights.keys"] += len(args[3] if len(args) > 3
                                                    else kwargs["weights"])
    elif name == "linalg.log_sum_exp" and hasattr(args[0], "__len__"):
        counts["linalg.log_sum_exp.values"] += len(args[0])
    elif name == "cli.main" and result != 0:
        counts["cli.nonzero_exits"] += 1


class Tracer:
    def __init__(self):
        import thermoshift
        self.package = thermoshift
        self.modules = {m: importlib.import_module(f"thermoshift.{m}") for m in MODULES}
        self.task_id = None
        self.names: set = set()
        self.spans: list = []
        self._stack: list = []       # [span_id or None, child seconds]
        self._next_id = 0
        self._pass = 0
        self._reset()

    def _reset(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool):
        tracer = self
        self.names.add(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = parent = None
            if span:
                parent = next((f[0] for f in reversed(stack) if f[0] is not None),
                              None)
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_s[name] += dur - frame[1]
                if ok:
                    _extra_counts(name, args, kwargs, result, tracer.counts)
                else:
                    tracer.errors[name] += 1
                if span:
                    tracer.spans.append({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "task": tracer.task_id, "pass": tracer._pass,
                                         "ok": ok})

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        """(owner, attribute, name, is_span) for everything to wrap."""
        out = []
        for mod_name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    out.append((mod, attr, f"{mod_name}.{attr}",
                                attr != "log_sum_exp"))
        pots = self.modules["potentials"]
        for fam in FAMILIES:
            cls = getattr(pots, fam)
            for meth in PER_WORD:
                out.append((cls, meth, f"potentials.{meth}.{fam}", False))
        meas = self.modules["measures"]
        out.append((meas.RPFEquilibrium, "mass", "measures.rpf_mass", False))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the wrapped functions; restore on exit."""
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        wrapped = {}
        for owner, attr, name, span in self._targets():
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig, span)
            wrapped[id(orig)] = (orig, wrapper)
            patch(owner, attr, wrapper)
        # Re-bind names imported into other modules and the package root.
        for mod in (self.package, *self.modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patch(mod, attr, hit[1])
        cli = self.modules["cli"]
        commands = dict(cli._COMMANDS)
        for cmd, fn in commands.items():
            cli._COMMANDS[cmd] = self._wrap(f"cli.{cmd}", fn, True)
        meas = self.modules["measures"]
        fw = meas.CylinderMeasure.__dict__["from_weights"]
        patch(meas.CylinderMeasure, "from_weights",
              classmethod(self._wrap("measures.from_weights", fw.__func__, True)))
        try:
            yield self
        finally:
            cli._COMMANDS.update(commands)
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- per-pass results --------------------------------------------------

    def begin_pass(self, index: int) -> None:
        self._pass = index
        self._reset()

    def end_pass(self) -> dict:
        """Layer metrics of the pass just traced, keyed by metric name."""
        m: dict = {}

        def fam_sum(table, meth):
            return sum(table[f"potentials.{meth}.{f}"] for f in FAMILIES)

        for meth in PER_WORD:
            m[f"potentials.{meth}.calls"] = fam_sum(self.calls, meth)
            m[f"potentials.{meth}.self_s"] = fam_sum(self.self_s, meth)
        for fam in FAMILIES:
            m[f"potentials.sup.{fam}.self_s"] = self.self_s[f"potentials.sup.{fam}"]
        for name in self.names:
            if not name.startswith("potentials.") or name.count(".") == 1:
                m[f"{name}.calls"] = self.calls[name]
                m[f"{name}.self_s"] = self.self_s[name]
                m[f"{name}.s"] = self.total[name]
        m["linalg.power_iteration.failures"] = self.errors["linalg.power_iteration"]
        m["pressure.transfer_attempts"] = self.calls["pressure.transfer_pressure"]
        m.update(self.counts)
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
