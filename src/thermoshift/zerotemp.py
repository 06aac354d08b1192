"""Zero-temperature limits: maximizing cycles, maximizing sub-shifts and
annealing traces along increasing inverse temperature.

Everything here expects an additive potential whose first-level function is
determined by one symbol (depth-1 locally constant or decay law): orbit
averages then reduce to vertex-weighted cycle means on the transition graph.
Their max-plus data (the maximum cycle mean beta, a cycle attaining it and
the critical graph that carries every near-maximal cycle) is read off the
row Bellman scaling of the block operator at t = 1, the Howard policy
iteration whose t-multiples scale every transfer solve
(:meth:`thermoshift.linalg.EdgeOperator.bellman_scaled`); it needs no
primitive shift.  ``anneal`` scales the block operator once and reads the
equilibrium state at every t of its schedule off that scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import UnsupportedEnumeration, ValidationError
from .linalg import BellmanScaling
from .measures import _equilibrium, _running_sum
from .potentials import Potential
from .pressure import _spectral_block, weighted_block_matrix
from .shifts import (ShiftModel, _grouped, _strong_components, _symbol_tuples,
                     word_levels)

_EXHAUSTIVE_LIMIT = 8
_NEAR_OPTIMAL = 1e-9     # cycle means this close to beta count as maximizing


def _bellman(shift: ShiftModel, pot: Potential) -> tuple[list[float], BellmanScaling]:
    """The vertex weights ``g`` (per symbol, in alphabet order) and the
    Bellman scaling of the block operator with log weights ``g``, whose
    ``beta`` is the maximum cycle mean."""
    if pot.depth != 1:
        raise ValidationError(
            "cycle means need an additive potential of depth 1")
    _, B, g = weighted_block_matrix(shift, pot, 1.0)
    return g.tolist(), B.bellman_scaled()


def _critical_graph(shift: ShiftModel, S: BellmanScaling) -> ShiftModel:
    """The critical graph: the edges whose reduced weight ``g_u + x_v - x_u
    - beta`` (the log weight of ``S.op``) is at least ``-2n *
    _NEAR_OPTIMAL`` (n symbols) and that lie on a cycle of such edges (both
    ends in one strongly connected component).  Around a cycle the reduced weights sum to its length times
    (mean - beta), and none on a cycle exceeds 0 beyond Howard's tolerance,
    so every cycle of mean >= beta - _NEAR_OPTIMAL is kept whole (the 2
    absorbs rounding) and every cycle kept has mean >= beta - 2n *
    _NEAR_OPTIMAL.  The component test drops tight edges that lead off
    every cycle, such as those between two classes of a reducible shift."""
    op = S.op
    tight = op.log_weight >= -2 * op.size * _NEAR_OPTIMAL
    src, dst = op.src[tight], op.dst[tight]
    comp = np.array(_strong_components(_grouped(op.size, src, dst)))
    on_cycle = comp[src] == comp[dst]
    src, dst = src[on_cycle], dst[on_cycle]
    idx = np.flatnonzero(np.bincount(src, minlength=op.size))
    codes = np.searchsorted(idx, src) * len(idx) + np.searchsorted(idx, dst)
    return ShiftModel._from_codes(tuple(shift.symbols[i] for i in idx),
                                  np.unique(codes))


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
    method: str              # always "howard"; kept for callers that read it


def max_mean_cycle(shift: ShiftModel, pot: Potential) -> MaxMeanCycle:
    """Largest Birkhoff mean over periodic orbits (= over simple cycles):
    Howard's beta, with the cycle that the policy walk closes from the
    first state whose policy edge is tight.  Every edge of a policy walk
    has reduced weight equal to the mean of the cycle it closes minus beta,
    so that cycle's mean is within _NEAR_OPTIMAL of beta."""
    _, S = _bellman(shift, pot)
    nxt = S.op.dst[S.policy].tolist()
    u = int(np.argmax(S.op.log_weight[S.policy] >= -_NEAR_OPTIMAL))
    walk: dict = {}
    while u not in walk:
        walk[u] = len(walk)
        u = nxt[u]
    cycle = list(walk)[walk[u]:]
    m = cycle.index(min(cycle))
    return MaxMeanCycle(S.beta, tuple(shift.symbols[i] for i in cycle[m:] + cycle[:m]),
                        "howard")


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
        return all((a, b) in self._edge_set for a, b in zip(word, word[1:]))

    @cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.edges)


def maximizing_subshift(shift: ShiftModel, pot: Potential) -> MaximizingSubshift:
    """Union of the simple cycles with mean >= beta - 1e-9, with the entropy
    of the resulting edge graph (log of its spectral radius).

    Only the critical graph of Howard's beta is enumerated, so the cycle
    cap of :func:`simple_cycles` bounds the maximizing set, not the shift.
    """
    g, S = _bellman(shift, pot)
    cycles = simple_cycles(_critical_graph(shift, S))
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


def anneal(shift: ShiftModel, pot: Potential, ts: Sequence[float],
           depth: int = 6, delta: float = 1e-4) -> AnnealTrace:
    """Equilibrium statistics along a temperature schedule, with greedy
    clustering of the depth-d marginals (descending t, new cluster when the
    max cylinder-mass gap to the cluster representative exceeds delta).
    Level d of the word-level engine is enumerated once, under the word
    budget; a marginal is the masses of its rows, and ``marginal`` maps the
    words of the positive rows, in level order, to them.  Every t reads its
    equilibrium state off one block operator."""
    ts = sorted({float(t) for t in ts}, reverse=True)
    if not ts:
        raise ValidationError("empty temperature schedule")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and >= 0, got {delta!r}")
    levels = word_levels(shift, depth)
    words = _symbol_tuples(shift, levels[-1].words)
    block = _spectral_block(shift, pot, None, ts)
    rows, clusters = [], []
    for t in ts:
        eq = _equilibrium(shift, block, t)
        mu = eq.level_masses(levels)[-1]
        live = np.flatnonzero(mu > 0)   # before dividing, as _from_level
        mu = mu / _running_sum(mu)
        rows.append(AnnealRow(t, eq.pressure, eq.lyapunov_exact(), eq.entropy(),
                              dict(zip([words[i] for i in live],
                                       mu[live].tolist()))))
        if clusters and float(np.abs(head - mu).max()) <= delta:
            clusters[-1].append(t)
        else:
            clusters.append([t])
            head = mu
    return AnnealTrace(tuple(rows), tuple(map(tuple, clusters)), depth, delta)


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
                     depth: int = 6, delta: float = 1e-4,
                     leak_tol: float = 1e-2) -> ZeroTempReport:
    """Compare the cold end of an annealing trace against the maximizing
    cycle data: Lyapunov exponent vs the maximum cycle mean, entropy vs the
    maximizing sub-shift entropy, and the equilibrium mass leaking outside
    the sub-shift."""
    # the sub-shift is cheap and may reject the shift; anneal only after it
    sub = maximizing_subshift(shift, pot)
    trace = anneal(shift, pot, ts, depth=depth, delta=delta)
    cold = trace.rows[0]
    leak = math.fsum(v for w, v in sorted(cold.marginal.items())
                     if not sub.admits(w))
    return ZeroTempReport(sub.beta, sub, cold.t,
                          abs(cold.lyapunov - sub.beta),
                          abs(cold.entropy - sub.entropy),
                          leak, leak <= leak_tol, trace)
