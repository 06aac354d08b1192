"""Zero-temperature limits: maximizing cycles, maximizing sub-shifts and
annealing traces along increasing inverse temperature.

Everything here expects an additive potential whose first-level function is
determined by one symbol (depth-1 locally constant or decay law): orbit
averages then reduce to vertex-weighted cycle means on the transition graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (NumericalError, UnsupportedEnumeration, ValidationError)
from .measures import rpf_equilibrium
from .potentials import Potential
from .shifts import ShiftModel, word_levels

_EXHAUSTIVE_LIMIT = 8
_NEAR_OPTIMAL = 1e-9     # cycle means this close to beta count as maximizing


def _vertex_weights(shift: ShiftModel, pot: Potential) -> list[float]:
    if not pot.is_additive or pot.depth != 1:
        raise ValidationError(
            "cycle means need an additive potential of depth 1")
    return pot.level_extrema(shift, word_levels(shift, 1))[0][0].tolist()


def simple_cycles(shift: ShiftModel) -> list[tuple]:
    """All simple cycles, as symbol tuples rotated to start at their
    smallest vertex.  Exhaustive, so the alphabet is capped."""
    n = shift.n_symbols
    if n > _EXHAUSTIVE_LIMIT:
        raise UnsupportedEnumeration(
            f"exhaustive cycle enumeration capped at {_EXHAUSTIVE_LIMIT} "
            f"symbols, got {n}")
    adj = shift.adjacency
    out = []
    for s in range(n):
        # only vertices >= s may appear, so each cycle is found once,
        # anchored at its smallest vertex
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            for u in range(n - 1, s - 1, -1):
                if not adj[v, u]:
                    continue
                if u == s:
                    out.append(path)
                elif u not in path:
                    stack.append((u, path + (u,)))
    out.sort(key=lambda c: (len(c), c))
    return [tuple(shift.symbols[i] for i in c) for c in out]


@dataclass(frozen=True)
class MaxMeanCycle:
    beta: float
    cycle: tuple
    method: str              # always "karp"; kept for callers that read it


def max_mean_cycle(shift: ShiftModel, pot: Potential) -> MaxMeanCycle:
    """Largest Birkhoff mean over periodic orbits (= over simple cycles)."""
    beta, cycle = _karp(shift, _vertex_weights(shift, pot))
    return MaxMeanCycle(beta, cycle, "karp")


def _karp(shift: ShiftModel, g: list[float]):
    """Karp's minimax recurrence for the maximum cycle mean, with cycle
    extraction from the optimal length-n walk."""
    n = shift.n_symbols
    adj = shift.adjacency.astype(bool)
    gv = np.asarray(g, dtype=np.float64)
    # d[k, v]: heaviest k-edge walk ending at v; ties keep the first u
    d = np.zeros((n + 1, n))
    parent = np.zeros((n + 1, n), dtype=np.int64)
    for k in range(1, n + 1):
        cand = np.where(adj, (d[k - 1] + gv)[:, None], -np.inf)
        parent[k] = cand.argmax(axis=0)
        d[k] = cand.max(axis=0)
    # a ShiftModel has no all-zero column, so every d[k, v] is finite
    worst = ((d[n] - d[:n]) / (n - np.arange(n))[:, None]).min(axis=0)
    v_star = int(worst.argmax())
    beta = float(worst[v_star])
    walk = [v_star]
    for k in range(n, 0, -1):
        walk.append(int(parent[k, walk[-1]]))
    walk.reverse()
    best_cycle = None
    best_mean = -math.inf
    seen: dict = {}
    for pos, v in enumerate(walk):
        if v in seen:
            cyc = walk[seen[v]:pos]
            mean = math.fsum(g[u] for u in cyc) / len(cyc)
            if mean > best_mean:
                best_mean, best_cycle = mean, cyc
        seen[v] = pos
    if best_cycle is None or abs(best_mean - beta) > 1e-9:
        raise NumericalError("cycle extraction disagrees with the recurrence")
    m = best_cycle.index(min(best_cycle))
    rotated = best_cycle[m:] + best_cycle[:m]
    return beta, tuple(shift.symbols[i] for i in rotated)


def _critical_graph(shift: ShiftModel, g: list[float], beta: float) -> ShiftModel:
    """Edges on a cycle that weighs at least -2n * _NEAR_OPTIMAL (n symbols)
    under the weights ``g[u] - beta``: a cycle with mean >= beta -
    _NEAR_OPTIMAL weighs at least -n * _NEAR_OPTIMAL; the 2 absorbs rounding.
    ``close`` is the max-plus closure (Floyd-Warshall, the empty path giving
    the zero diagonal), so ``w[u, v] + close[v, u]`` is the heaviest cycle
    through u -> v."""
    n = shift.n_symbols
    adj = shift.adjacency.astype(bool)
    w = np.where(adj, (np.asarray(g, dtype=np.float64) - beta)[:, None], -np.inf)
    close = w.copy()
    np.fill_diagonal(close, np.maximum(np.diag(close), 0.0))
    for k in range(n):
        close = np.maximum(close, close[:, k, None] + close[None, k, :])
    crit = w + close.T >= -2 * n * _NEAR_OPTIMAL
    # rounding can strand an edge: trim to where every vertex has one in and out
    live = np.ones(n, dtype=bool)
    while True:
        crit &= live[:, None] & live[None, :]
        now = crit.any(axis=0) & crit.any(axis=1)
        if (now == live).all():
            break
        live = now
    idx = np.flatnonzero(live)
    return ShiftModel(tuple(shift.symbols[i] for i in idx),
                      crit[np.ix_(idx, idx)])


@dataclass(frozen=True)
class MaximizingSubshift:
    beta: float
    symbols: tuple
    edges: tuple             # (a, b) pairs, the union of near-optimal cycles
    entropy: float
    cycles: tuple

    def admits(self, word) -> bool:
        word = tuple(word)
        if any(s not in self.symbols for s in word):
            return False
        edge_set = set(self.edges)
        return all((a, b) in edge_set for a, b in zip(word, word[1:]))


def maximizing_subshift(shift: ShiftModel, pot: Potential) -> MaximizingSubshift:
    """Union of the simple cycles with mean >= beta - 1e-9, with the entropy
    of the resulting edge graph (log of its spectral radius).

    Only the critical graph of Karp's beta is enumerated, so the cycle cap
    of :func:`simple_cycles` bounds the maximizing set, not the shift.
    """
    g = _vertex_weights(shift, pot)
    cycles = simple_cycles(_critical_graph(shift, g, _karp(shift, g)[0]))
    means = [(math.fsum(g[shift.index(s)] for s in c) / len(c), c)
             for c in cycles]
    beta = max(m for m, _ in means)
    keep = [c for m, c in means if m >= beta - _NEAR_OPTIMAL]
    symbols = sorted({s for c in keep for s in c}, key=shift.index)
    edges = sorted({(a, b) for c in keep for a, b in zip(c, c[1:] + c[:1])})
    # a union of cycles: every symbol has an edge in and out, and rho >= 1
    adj = ShiftModel.from_edges(symbols, edges).adjacency
    entropy = math.log(max(abs(np.linalg.eigvals(adj))))
    return MaximizingSubshift(beta, tuple(symbols), tuple(edges), entropy,
                              tuple(keep))


# -- annealing -------------------------------------------------------------


@dataclass
class AnnealRow:
    t: float
    pressure: float
    lyapunov: float
    entropy: float
    marginal: dict           # depth-d cylinder masses


@dataclass
class AnnealTrace:
    rows: tuple              # sorted by decreasing t
    clusters: tuple          # tuples of t sharing a marginal within delta
    depth: int
    delta: float
    fingerprint: str


def _marginal_distance(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def anneal(shift: ShiftModel, pot: Potential, ts: Sequence[float],
           depth: int = 6, delta: float = 1e-4) -> AnnealTrace:
    """Equilibrium statistics along a temperature schedule, with greedy
    clustering of the depth-d marginals (descending t, new cluster when the
    max cylinder-mass gap to the cluster representative exceeds delta)."""
    ts = sorted({float(t) for t in ts}, reverse=True)
    if not ts:
        raise ValidationError("empty temperature schedule")
    rows = []
    for t in ts:
        eq = rpf_equilibrium(shift, pot, t)
        marg = eq.as_cylinder_measure(depth).weights
        rows.append(AnnealRow(t, eq.pressure, eq.lyapunov_exact(),
                              eq.entropy(), marg))
    clusters = []
    current = [rows[0]]
    for row in rows[1:]:
        if _marginal_distance(current[0].marginal, row.marginal) <= delta:
            current.append(row)
        else:
            clusters.append(tuple(r.t for r in current))
            current = [row]
    clusters.append(tuple(r.t for r in current))
    return AnnealTrace(tuple(rows), tuple(clusters), depth, delta,
                       shift.fingerprint())


@dataclass
class ZeroTempReport:
    beta: float
    subshift: MaximizingSubshift
    t_max: float
    lyapunov_gap: float      # |L(t_max) - beta|
    entropy_gap: float       # |H(t_max) - subshift entropy|
    leakage: float           # equilibrium mass outside the subshift cylinders
    leak_ok: bool
    trace: AnnealTrace


def zero_temp_report(shift: ShiftModel, pot: Potential, ts: Sequence[float],
                     depth: int = 6, delta: float = 1e-4, leak_tol: float = 1e-2,
                     trace: AnnealTrace | None = None) -> ZeroTempReport:
    """Compare the cold end of an annealing trace against the maximizing
    cycle data: Lyapunov exponent vs the maximum cycle mean, entropy vs the
    maximizing sub-shift entropy, and the equilibrium mass leaking outside
    the sub-shift."""
    if trace is not None and trace.fingerprint != shift.fingerprint():
        raise ValidationError(
            "annealing trace belongs to a different transition graph")
    # the sub-shift is cheap and may reject the shift; anneal only after it
    sub = maximizing_subshift(shift, pot)
    if trace is None:
        trace = anneal(shift, pot, ts, depth=depth, delta=delta)
    cold = trace.rows[0]
    leak = math.fsum(v for w, v in sorted(cold.marginal.items())
                     if not sub.admits(w))
    return ZeroTempReport(sub.beta, sub, cold.t,
                          abs(cold.lyapunov - sub.beta),
                          abs(cold.entropy - sub.entropy),
                          leak, leak <= leak_tol, trace)
