"""Run the benchmark twice over a range of seeds and record the baseline.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10 [--out perfbench/baseline.json]

Every run is ``run.py --trace 0`` for ``run_seconds`` of BENCHMARK.json.  The
sweep makes two sets of runs, each over every workload of BENCHMARK.json and
every seed, then one ``--trace 1`` run per workload at the first seed.  For
every workload and end-to-end metric it prints the median, the quartiles and
the spread (interquartile range over the median, as ``statistics.quantiles``
with n=4 gives them) of each set, and how far the second set's median is
worse than the first's, against the metric's bound.  It also compares the CLI
digests of the two sets seed for seed.

With ``--out`` it writes all of it as JSON: the environment, per workload the
``why`` of BENCHMARK.json, both sets (every run's metrics and digest, and the
statistics), ``digests_identical``, ``agreement``, the traced run's per-layer
metrics and the tasks that failed (``known_failures``).  The exit status is 1
if a run returned a wrong answer, a spread or a median shift exceeds its
bound, or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
FAILURE = re.compile(r"^# (failed|wrong): ([^:]+): (.*)$")


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *cmd[1:]], cwd=HERE.parent,
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = {"command": " ".join(cmd), "seed": seed,
              "attempted": result["attempted"], "failed": result["failed"],
              "correct": result["correct"],
              "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    for line in lines:
        if line.startswith("# cli_digest "):
            report["cli_digest"] = line.split()[-1]
        elif line.startswith("# env "):
            report["environment"] = json.loads(line[len("# env "):])
        elif m := FAILURE.match(line):
            report.setdefault("failures", {})[m.group(2)] = f"{m.group(1)}: {m.group(3)}"
    return report


def stats(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else float("nan")}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, type=seeds)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("--seeds: quartiles need at least two seeds")
    names = [w["name"] for w in BENCH["workloads"]]
    metrics = {m["name"]: m for m in BENCH["end_to_end"]}

    sets = {w: [] for w in names}
    for number in (1, 2):
        for workload in names:
            runs = []
            for seed in args.seeds:
                r = run(workload, seed, 0)
                runs.append(r)
                print(f"set {number} {workload} seed={seed} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()),
                      flush=True)
            sets[workload].append({"stats": stats(runs), "runs": runs})

    ok = True
    out = {"run_seconds": BENCH["run_seconds"], "seeds": args.seeds,
           "environment": sets[names[0]][0]["runs"][0]["environment"], "workloads": {}}
    for workload in names:
        first, second = sets[workload]
        for s in (first, second):
            for r in s["runs"]:
                del r["environment"]
        digests_identical = ([r["cli_digest"] for r in first["runs"]]
                             == [r["cli_digest"] for r in second["runs"]])
        agreement = {}
        for name, m in metrics.items():
            m1, m2 = first["stats"][name]["median"], second["stats"][name]["median"]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            spreads = [s["stats"][name]["spread"] for s in (first, second)]
            within = worse <= m["bound"] and (
                name == "setup_s" or all(sp <= m["bound"] for sp in spreads))
            agreement[name] = {"spread_first": spreads[0], "spread_second": spreads[1],
                               "second_vs_first": worse, "bound": m["bound"],
                               "within_bound": within}
            print(f"  {workload:9s} {name:12s} median {m1:.6g} / {m2:.6g} "
                  f"spread {spreads[0]:.4f} / {spreads[1]:.4f} "
                  f"second worse by {worse:+.4f} (bound {m['bound']})"
                  + ("" if within else "  OUTSIDE BOUND"))
            ok &= within
        correct = all(r["correct"] for s in (first, second) for r in s["runs"])
        print(f"  {workload:9s} digests identical: {digests_identical}, "
              f"all correct: {correct}", flush=True)
        ok &= digests_identical and correct
        traced = run(workload, args.seeds[0], 1)
        del traced["environment"]
        known = {}
        for s in (first, second):
            for r in s["runs"]:
                for tid, msg in r.get("failures", {}).items():
                    known.setdefault(tid, msg)
        out["workloads"][workload] = {
            "why": next(w["why"] for w in BENCH["workloads"] if w["name"] == workload),
            "sets": [first, second], "digests_identical": digests_identical,
            "agreement": agreement, "per_layer": traced,
            "known_failures": dict(sorted(known.items()))}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
