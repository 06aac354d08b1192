"""Runs a workload's tasks inside one process and records what the program
returned; ``run.py`` starts it and judges the results.

The worker is the single caller of a closed loop: it issues the next task
only after the previous one has returned.  It calls ``thermoshift.cli.main``
in-process for CLI tasks and the public API for the rest.  Only the program
call is timed; writing a task's config file and converting the result to
JSON happen outside the timed region.  Each pass's record is written to
``DIR/results.jsonl`` as soon as the pass ends, so results do not pile up in
this process and inflate its peak resident memory.

Between passes the worker times one fresh-interpreter set-up
(``setup_probe.py``), so set-up samples spread over the run the same way the
passes do.  After each task of a timed pass it runs a fixed calibration mix
(``calibrate``), about once per quarter second of task time, to measure how
fast the shared machine was while the tasks ran.  A new pass starts only
while a typical pass still fits in the time left.

Usage: worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR
                 [--setup CONFIGS_JSON] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads

MIN_SETUP_SAMPLES = 5
CALIBRATION_INTERVAL_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work (tuples, dicts, floats) and
    small numpy calls, the kind of work that dominates the package.  It never
    touches thermoshift, so it only tracks the speed of the machine.  (A BLAS
    matrix-vector product tracked the workloads' slowdowns worse and was left
    out.)"""
    import numpy as np
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(30_000):
        w = (i & 7, i & 3, i)
        acc[w[:2]] = acc.get(w[:2], 0.0) + 1.5 * i
    a = np.ones((2, 2))
    for _ in range(1_500):
        a = a @ a
        a /= a.sum()
    return time.perf_counter() - t0


def _key(cfg) -> str:
    return json.dumps(cfg, sort_keys=True)


class Runner:
    """Executes task specs; shifts and potentials are built once per pass
    and shared by the tasks of that pass, as a caller holding them would."""

    def __init__(self, ts, workdir: str):
        self.ts = ts
        self.workdir = workdir
        self.objects: dict = {}

    def new_pass(self) -> None:
        self.objects = {}

    def shift(self, cfg):
        k = "shift:" + _key(cfg)
        if k not in self.objects:
            self.objects[k] = self.ts.shift_from_config(cfg)
        return self.objects[k]

    def potential(self, cfg):
        k = "potential:" + _key(cfg)
        if k not in self.objects:
            self.objects[k] = self.ts.potential_from_config(cfg)
        return self.objects[k]

    def prepare(self, spec: dict):
        """Untimed preparation; returns the zero-argument timed call."""
        op = spec["op"]
        ts = self.ts
        if op == "cli":
            path = os.path.join(self.workdir, f"cfg-{spec['id']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec["config"], fh)
            return lambda: self._cli(spec["cmd"], path)
        if op == "compact_approximation":
            rule = {"renewal": ts.RenewalRule, "full": ts.FullShiftRule}[spec["rule"]]
            return lambda: ts.compact_approximation(rule(), spec["k_max"],
                                                    seed=spec["seed"])

        def call():
            shift = self.shift(spec["shift"])
            pot = self.potential(spec["potential"])
            if op == "topological_pressure":
                return ts.topological_pressure(shift, pot, spec["t"], spec["n_max"])
            if op == "transfer":
                return ts.transfer_pressure(shift, pot, spec["t"])
            if op == "rpf":
                eq = ts.rpf_equilibrium(shift, pot, spec["t"])
                return eq, eq.entropy(), eq.lyapunov_exact()
            if op == "measure_stats":
                mu = ts.gibbs_construct(shift, pot, spec["t"], spec["n"],
                                        spec["m"], spec["depth"])
                return (ts.entropy_estimate(shift, mu, spec["n_max"]),
                        ts.lyapunov(shift, pot, mu, spec["n_max"]))
            if op == "anneal":
                return ts.anneal(shift, pot, spec["ts"], depth=spec["depth"])
            if op == "max_mean_cycle":
                return ts.max_mean_cycle(shift, pot)
            raise ValueError(f"unknown op {op!r}")
        return call

    def _cli(self, cmd: str, path: str):
        from thermoshift import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([cmd, "--config", path])
        return {"exit": code, "doc": out.getvalue(), "stderr": err.getvalue()}


def _jsonable(op: str, value) -> dict:
    """Plain-data view of a task's return value for the oracles."""
    if op == "cli":
        return value
    if op in ("topological_pressure", "transfer"):
        return {"value": value.value, "route": value.route,
                "sequence": [list(p) for p in value.sequence]}
    if op == "rpf":
        eq, entropy, lyap = value
        return {"pressure": eq.pressure, "entropy": entropy, "lyapunov": lyap}
    if op == "measure_stats":
        ent, lyap = value
        return {"entropy": [list(r) for r in ent.sequence],
                "lyapunov": [list(r) for r in lyap.sequence]}
    if op == "anneal":
        return {"rows": [{"t": r.t, "P": r.pressure, "L": r.lyapunov, "H": r.entropy,
                          "marginal": [[",".join(map(str, w)), v]
                                       for w, v in sorted(r.marginal.items())]}
                         for r in value.rows]}
    if op == "max_mean_cycle":
        return {"beta": value.beta, "cycle": list(value.cycle), "method": value.method}
    if op == "compact_approximation":
        return {"levels": [list(lv.symbols) for lv in value.levels],
                "n_values": list(value.n_values),
                "connectors": [[[a, b, list(f["e"]), list(f["c"])]
                                for (a, b), f in sorted(conns.items())]
                               for conns in value.connectors],
                "certificates": [[c.status, c.primitive_exponent]
                                 for c in value.certificates]}
    raise ValueError(f"unknown op {op!r}")


def run_pass(runner: Runner, specs: list[dict], tracer=None,
             calibrated: bool = False) -> dict:
    """One pass over ``specs``; with ``calibrated`` each task record also
    holds the calibration samples taken right after the task."""
    runner.new_pass()
    results = []
    total = 0.0
    for spec in specs:
        call = runner.prepare(spec)
        if tracer is not None:
            tracer.task_id = spec["id"]
        t0 = time.perf_counter()
        try:
            value = call()
            error = None
        except Exception as exc:  # a failed task is recorded, never fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        total += elapsed
        rec = {"id": spec["id"], "seconds": elapsed}
        if calibrated:
            rec["calibration_s"] = [calibrate() for _ in range(
                max(1, round(elapsed / CALIBRATION_INTERVAL_S)))]
        if error is None:
            rec["result"] = _jsonable(spec["op"], value)
        else:
            rec["error"] = error
        results.append(rec)
    return {"wall_s": total, "tasks": results}


def time_setup(configs_path: str) -> list:
    """[seconds of one fresh-interpreter set-up, median calibration right
    after it]."""
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, os.path.join(here, "setup_probe.py"),
                           configs_path], capture_output=True, text=True, check=True)
    return [float(proc.stdout.strip().splitlines()[-1]),
            statistics.median(calibrate() for _ in range(3))]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup", default=None, help="configs for setup_probe.py")
    ap.add_argument("--spans", default=None, help="where traced spans go (JSON lines)")
    args = ap.parse_args()

    import thermoshift
    runner = Runner(thermoshift, args.workdir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    setup = []
    rounds = []
    start = time.perf_counter()
    with open(os.path.join(args.workdir, "results.jsonl"), "w",
              encoding="utf-8") as results:
        p = 0
        while p == 0 or (time.perf_counter() - start + statistics.median(rounds)
                         <= args.seconds):
            t0 = time.perf_counter()
            specs = workloads.tasks(args.workload, args.seed, p)
            rec = run_pass(runner, specs, calibrated=tracer is None)
            results.write(json.dumps(dict(rec, kind="plain", index=p)) + "\n")
            if tracer is not None:
                # Same inputs again with the wrappers installed; the difference
                # between the two passes is the tracing overhead.
                tracer.begin_pass(p)
                with tracer.installed():
                    rec = run_pass(runner, specs, tracer)
                rec["layers"] = tracer.end_pass()
                results.write(json.dumps(dict(rec, kind="traced", index=p)) + "\n")
            if args.setup:
                setup.append(time_setup(args.setup))
            rounds.append(time.perf_counter() - t0)
            p += 1
        while args.setup and len(setup) < MIN_SETUP_SAMPLES:
            setup.append(time_setup(args.setup))
        results.write(json.dumps({
            "kind": "summary", "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "thermoshift_file": thermoshift.__file__}) + "\n")
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
