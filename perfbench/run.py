"""thermoshift benchmark: the command BENCHMARK.json names.

Usage (from the repository root):

    python3 perfbench/run.py --workload covering|spectral|cold|approx \\
        --seed N --seconds S --trace 0|1

It starts one worker process that runs the workload's seeded task list as a
closed loop for about S seconds and times fresh-interpreter set-ups between
passes (``worker.py``), judges every result with an independent oracle
(``oracles.py``), prints a report, and ends with one JSON line.  With
``--trace 0`` that line carries the end-to-end metrics; with ``--trace 1``
the worker alternates plain and traced passes over the same inputs and the
line carries the per-layer metrics, named and ordered as in BENCHMARK.json.

The package is imported from ``src/`` of the same checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads here or in any child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIME_LIMIT_S = 170.0
# Median of worker.calibrate() on the reference machine (2 vCPU Intel Xeon,
# Python 3.11, numpy 2.4, one OpenBLAS thread).  Times are reported at that
# speed: a task's time is scaled by this over the median calibration taken
# right after the task, and a set-up sample by this over the calibration
# taken right after it.  That cancels much of the drift in the speed of a
# shared machine, which otherwise moves run medians by 20% or more.
CALIBRATION_REF_S = 0.016


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"])}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_configs(specs: list[dict]) -> dict:
    """Distinct shift and potential configs the workload builds."""
    shifts, pots = {}, {}
    for spec in specs:
        for holder in (spec, spec.get("config", {})):
            sh = holder.get("shift")
            if sh is not None:
                shifts[json.dumps(sh, sort_keys=True)] = sh
            pot = holder.get("potential")
            if pot is not None:
                pots[json.dumps(pot, sort_keys=True)] = pot
    return {"shifts": list(shifts.values()), "potentials": list(pots.values())}


def median(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "thermoshift" / "__init__.py").is_file():
        print(f"error: no thermoshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    import oracles

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
        if not args.trace:
            setup_path = workdir / "setup.json"
            setup_path.write_text(json.dumps(setup_configs(
                workloads.tasks(args.workload, args.seed, 0))), encoding="utf-8")
            cmd += ["--setup", str(setup_path)]
        else:
            cmd += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")]
        # A new process group, so a timeout also ends the worker's set-up probes.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=env, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print("error: worker exceeded the time limit", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(stderr, file=sys.stderr)
            print("error: worker failed", file=sys.stderr)
            return 1
        records = [json.loads(line) for line in
                   (workdir / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = records[-1]
    plain = [r for r in records if r["kind"] == "plain"]
    traced = [r for r in records if r["kind"] == "traced"]

    # Judge every task of every pass, plain and traced.
    attempted = failed = wrong = 0
    failures: dict = {}
    first_status: dict = {}
    digests = []
    for rec in plain + traced:
        specs = {s["id"]: s for s in workloads.tasks(args.workload, args.seed, rec["index"])}
        for task in rec["tasks"]:
            status, msg, digest = oracles.judge(specs[task["id"]], task)
            attempted += 1
            if status != "ok":
                failed += 1
                wrong += status == "wrong"
                failures.setdefault((task["id"], status), msg)
            if rec is plain[0]:
                first_status[task["id"]] = status
                if digest is not None:
                    digests.append(f"{task['id']}:{digest}")
    specs0 = {s["id"]: s for s in workloads.tasks(args.workload, args.seed, 0)}

    print(f"# perfbench {args.workload} seed={args.seed} passes={len(plain)}"
          f" traced_passes={len(traced)} setup_samples={len(summary['setup_s'])}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# package {summary['thermoshift_file']}")
    for task in plain[0]["tasks"]:
        print(f"#   {task['id']:<28} {task['seconds']:8.4f}s {first_status[task['id']]:<6} "
              f"{specs0[task['id']]['probe']}")
    for (tid, status), msg in sorted(failures.items()):
        print(f"# {status}: {tid}: {msg.splitlines()[0] if msg else ''}")
    print(f"# failed_frac {failed}/{attempted} = {failed / attempted:.6f}")
    print("# cli_digest " + hashlib.sha256("\n".join(digests).encode()).hexdigest())

    walls = [p["wall_s"] for p in plain]
    if args.trace:
        names = set(traced[0]["layers"])
        values = {}
        for m in wanted:
            if m["name"] == "trace.overhead_s":
                values[m["name"]] = median(p["wall_s"] for p in traced) - median(walls)
            elif m["name"] in names:
                values[m["name"]] = median(p["layers"][m["name"]] for p in traced)
            else:
                print(f"error: tracer has no metric {m['name']!r}", file=sys.stderr)
                return 1
    else:
        # Each task's fastest scaled time over the passes, summed over the
        # tasks of a pass.  Neighbours on a shared machine only ever slow a
        # task down, and over 4 to 13 passes its fastest time moved between
        # seeds far less than the median pass did.
        best: dict = {}
        for p in plain:
            for t in p["tasks"]:
                s = t["seconds"] * CALIBRATION_REF_S / median(t["calibration_s"])
                best[t["id"]] = min(best.get(t["id"], s), s)
        wall = sum(best.values())
        setup = [s * CALIBRATION_REF_S / c for s, c in summary["setup_s"]]
        print(f"# pass wall: raw median {median(walls):.6f} s, "
              f"sum of fastest scaled task times {wall:.6f} s")
        print(f"# setup: raw median {median(s for s, _ in summary['setup_s']):.6f} s, "
              f"scaled median {median(setup):.6f} s")
        values = {"wall_s": wall, "setup_s": median(setup),
                  "peak_rss_mb": summary["peak_rss_mb"],
                  "solved_frac": (attempted - failed) / attempted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
