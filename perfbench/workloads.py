"""Seeded task lists for the four benchmark workloads.

``tasks(workload, seed, pass_index)`` returns the list of task specs one pass
runs.  Every table, matrix, coefficient, temperature and start symbol is drawn
from ``random.Random`` seeded by the workload name, the seed and the pass, so
the same arguments always give the same inputs, and each pass gets fresh
values (a cache inside the program cannot carry results from one pass into
the next).  Sizes are fixed per workload, so the work a pass does varies
little between seeds.  The ``approx`` tasks have a start symbol (and a level
count) as their only inputs, so each run walks a seed-drawn ordering of a
list of equally sized choices instead: no input repeats within a run until
the list is used up (8 to 12 passes).

A spec is a plain dict: ``id`` (stable across seeds), ``op`` (what the worker
calls), the op's inputs, ``check`` (which oracle judges the result) and
``probe`` (the ROADMAP item-1 probe or known failure it reproduces).
"""

from __future__ import annotations

import random

WORKLOADS = ("covering", "spectral", "cold", "approx")

# Renewal truncation used by the spectral workload.
RENEWAL_N = 1200


def _r(x: float) -> float:
    return round(x, 6)


def _full(k: int) -> dict:
    return {"alphabet": k, "edges": "full"}


def _table(rng: random.Random, keys, lo: float, hi: float) -> dict:
    return {",".join(str(s) for s in key): _r(rng.uniform(lo, hi)) for key in keys}


def _words(k: int, n: int) -> list[tuple]:
    out = [()]
    for _ in range(n):
        out = [w + (s,) for w in out for s in range(k)]
    return out


def _cocycle(rng: random.Random, symbols: int, dim: int = 2) -> dict:
    mats = {str(s): [[f"{rng.uniform(0.2, 2.0):.4f}" for _ in range(dim)]
                     for _ in range(dim)] for s in range(symbols)}
    return {"family": "matrix_cocycle", "matrices": mats}


def _lc(table: dict, depth: int) -> dict:
    return {"family": "locally_constant", "depth": depth, "table": table}


def _mixing_graph(rng: random.Random, n: int, density: float) -> dict:
    """A primitive graph on 0..n-1: a Hamiltonian cycle, one self-loop and
    random extra edges."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges.add((0, 0))
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                edges.add((i, j))
    return {"alphabet": n, "edges": sorted([a, b] for a, b in edges)}


def covering(rng: random.Random) -> list[dict]:
    coc2 = _cocycle(rng, 2)
    lc2 = _lc(_table(rng, _words(3, 2), -1.0, 0.0), 2)
    t_topo = _r(rng.uniform(1.0, 2.0))
    t_gibbs = _r(rng.uniform(1.0, 2.0))
    t_stats = _r(rng.uniform(1.0, 2.0))
    return [
        {"id": "topological_cocycle_n12", "op": "topological_pressure",
         "shift": _full(2), "potential": coc2, "t": 1.0, "n_max": 12,
         "check": "cocycle_topological",
         "probe": "topological_pressure on the 2-matrix cocycle"},
        {"id": "topological_depth2_n9", "op": "topological_pressure",
         "shift": _full(3), "potential": lc2, "t": t_topo, "n_max": 9,
         "check": "lc_topological", "probe": "word-level scan, depth-2 table"},
        {"id": "cli_gibbs", "op": "cli", "cmd": "gibbs",
         "config": {"shift": _full(3), "potential": lc2, "t": t_gibbs,
                    "n": 8, "m": 2, "depth": 6, "slack": 0.01},
         "check": "gibbs_doc", "probe": "gibbs_construct on the 3-symbol full shift"},
        {"id": "entropy_lyapunov_n8", "op": "measure_stats",
         "shift": _full(3), "potential": lc2, "t": t_stats, "n": 9, "m": 2,
         "depth": 8, "n_max": 8, "check": "measure_stats",
         "probe": "entropy_estimate and lyapunov on a Cesaro Gibbs measure"},
        {"id": "cli_certify_cocycle_d10", "op": "cli", "cmd": "certify",
         "config": {"shift": _full(2), "potential": coc2, "depth": 10},
         "check": "certify_cocycle_doc", "probe": "constants_report on the cocycle"},
    ]


def spectral(rng: random.Random) -> list[dict]:
    n = RENEWAL_N
    renewal = {"rule": "renewal", "truncation": n}
    # t * coef > 1 keeps the renewal series summable.
    decay = [{"family": "decay", "law": "log", "coef": _r(rng.uniform(1.3, 2.5))}
             for _ in range(3)]
    t = [_r(rng.uniform(1.0, 1.5)) for _ in range(3)]
    lc3 = _lc(_table(rng, _words(4, 3), -1.0, 0.0), 3)
    lc9 = _lc(_table(rng, [(s,) for s in range(9)], -1.0, 0.0), 1)
    small = {"rule": "renewal", "truncation": 80}
    return [
        {"id": "transfer_renewal", "op": "transfer", "shift": renewal,
         "potential": decay[0], "t": t[0], "check": "renewal_pressure",
         "probe": "transfer_pressure on the renewal truncation"},
        {"id": "rpf_renewal", "op": "rpf", "shift": renewal,
         "potential": decay[1], "t": t[1], "check": "renewal_rpf",
         "probe": "rpf_equilibrium entropy and lyapunov_exact"},
        {"id": "cli_curve_renewal", "op": "cli", "cmd": "curve",
         "config": {"shift": renewal, "potential": decay[2],
                    "t_grid": {"start": t[2], "stop": _r(t[2] + 1.0), "count": 3}},
         "check": "renewal_curve_doc", "probe": "pressure_curve, three solves per point"},
        {"id": "transfer_depth3_full4", "op": "transfer", "shift": _full(4),
         "potential": lc3, "t": _r(rng.uniform(1.0, 3.0)),
         "check": "lc_block_pressure", "probe": "64-state block matrix"},
        {"id": "anneal_full9_depth4", "op": "anneal", "shift": _full(9),
         "potential": lc9, "ts": [1.0, 2.0, 4.0], "depth": 4,
         "check": "anneal_full", "probe": "anneal on the 9-symbol full shift (shallow)"},
        {"id": "cli_certify_renewal80", "op": "cli", "cmd": "certify",
         "config": {"shift": small, "potential": decay[0], "depth": 5},
         "check": "certify_renewal_doc", "probe": "mixing_certificate on a renewal truncation"},
    ]


def cold(rng: random.Random) -> list[dict]:
    # Golden mean with f = {0: a, 1: b}, b > a, so the period-2 orbit 01
    # maximizes and the spectrum is nearly period-2 at low temperature.  The
    # temperatures are placed by s = t * (b - a) / 2: power iteration needs
    # about 15 e^s steps, so s <= 6 converges within the 100k cap and
    # s >= 12 cannot.
    b = _r(rng.uniform(-0.1, 0.1))
    gap = _r(rng.uniform(0.8, 1.25))
    a = _r(b - gap)
    gm_shift = {"alphabet": [0, 1], "edges": [[0, 0], [0, 1], [1, 0]]}
    gm = {"shift": gm_shift, "potential": _lc({"0": a, "1": b}, 1)}

    def pressure(tag, route, t, probe, **extra):
        cfg = dict(gm, t=_r(t), route=route, **extra)
        return {"id": f"cli_pressure_{tag}", "op": "cli", "cmd": "pressure",
                "config": cfg, "check": "golden_mean_doc", "probe": probe}

    out = []
    for s in (1, 2, 4, 6):
        out.append(pressure(f"transfer_s{s}", "transfer", 2 * s / gap,
                            "cold transfer, converges"))
    for s in (12, 24):
        out.append(pressure(f"transfer_s{s}", "transfer", 2 * s / gap,
                            "KNOWN FAILURE: power iteration does not converge (t >~ 17/gap)"))
    out.append(pressure("auto_s3", "auto", 6 / gap, "cold auto route, converges"))
    out.append(pressure("auto_s16", "auto", 32 / gap,
                        "KNOWN FAILURE: auto route has no fallback for non-convergence"))
    # t * a <= -800: exp(t * a) underflows to 0 and power iteration collapses.
    out.append(pressure("transfer_underflow", "transfer", 800 / -a,
                        "KNOWN FAILURE: exp(t f) underflows (t >= 745)"))
    out.append(pressure("auto_underflow", "auto", 1000 / -a,
                        "KNOWN FAILURE: exp(t f) underflows (t >= 745)"))
    out.append({"id": "cli_pressure_gurevich_n20", "op": "cli", "cmd": "pressure",
                "config": dict(gm, t=_r(rng.uniform(1.0, 4.0)), route="gurevich",
                               n_max=20),
                "check": "gurevich_doc", "probe": "gurevich_estimate on the golden mean"})
    for size in (6, 8):
        g = _mixing_graph(rng, size, 0.25)
        out.append({"id": f"cli_zerotemp_{size}", "op": "cli", "cmd": "zerotemp",
                    "config": {"shift": g,
                               "potential": _lc(_table(rng, [(s,) for s in range(size)],
                                                       -1.0, 0.0), 1),
                               "t_grid": [1.0, 2.0, 3.0, 4.0], "depth": 3},
                    "check": "zerotemp_doc", "probe": "zero_temp_report schedule"})
    g9 = _mixing_graph(rng, 9, 0.25)
    out.append({"id": "cli_zerotemp_9", "op": "cli", "cmd": "zerotemp",
                "config": {"shift": g9,
                           "potential": _lc(_table(rng, [(s,) for s in range(9)],
                                                   -1.0, 0.0), 1),
                           "t_grid": [1.0, 2.0], "depth": 2},
                "check": "zerotemp_doc",
                "probe": "KNOWN FAILURE: simple_cycles is capped at 8 symbols"})
    karp_n = 120
    out.append({"id": "karp_120", "op": "max_mean_cycle",
                "shift": _mixing_graph(rng, karp_n, 0.05),
                "potential": _lc(_table(rng, [(s,) for s in range(karp_n)], -1.0, 0.0), 1),
                "check": "karp", "probe": "Karp on a 120-symbol graph"})
    return out


# (start symbol, k_max) choices for the renewal rule.  On the renewal shift
# the start symbol s sets the level sizes (2**(k-1) * (s + 2) - 1 symbols at
# the top level for s >= 2), so each list holds choices of about the same
# cost; the two lists share no choice.
RENEWAL_COMPACT = ((1, 4), (2, 4), (5, 3), (6, 3), (12, 2), (13, 2), (14, 2), (15, 2))
RENEWAL_CLI = ((1, 3), (2, 3), (3, 3), (4, 3), (6, 2), (7, 2), (8, 2), (9, 2))
# Start symbols for the full shift at k_max = 3: every one gives levels of
# 3, 21 and 144 symbols.
FULL_STARTS = tuple(range(1, 13))


def approx(rng: random.Random, pick) -> list[dict]:
    s_ren, k_ren = pick("compact_renewal", RENEWAL_COMPACT)
    s_cli, k_cli = pick("cli_approx", RENEWAL_CLI)
    return [
        {"id": "compact_renewal", "op": "compact_approximation",
         "rule": "renewal", "k_max": k_ren, "seed": s_ren,
         "check": "compact",
         "probe": "compact_approximation(RenewalRule(), k), 27-33 symbols at the top level"},
        {"id": "compact_full_k3", "op": "compact_approximation",
         "rule": "full", "k_max": 3, "seed": pick("compact_full", FULL_STARTS),
         "check": "compact", "probe": "compact_approximation(FullShiftRule(), 3)"},
        {"id": "cli_approx_renewal", "op": "cli", "cmd": "approx",
         "config": {"ambient": {"rule": "renewal"}, "k_max": k_cli, "seed": s_cli,
                    "potential": {"family": "decay", "law": "log",
                                  "coef": _r(rng.uniform(1.5, 3.0))},
                    "t": _r(rng.uniform(1.5, 2.5))},
         "check": "approx_doc", "probe": "approx CLI with truncation_curve"},
    ]


_BUILDERS = {"covering": covering, "spectral": spectral, "cold": cold}


def tasks(workload: str, seed: int, pass_index: int) -> list[dict]:
    """Task specs of one pass; identical for identical arguments."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "approx":
        def pick(name, choices):
            order = list(choices)
            random.Random(f"{workload}:{seed}:{name}").shuffle(order)
            return order[pass_index % len(order)]
        return approx(rng, pick)
    return _BUILDERS[workload](rng)
