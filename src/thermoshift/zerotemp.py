"""Zero-temperature limits: maximizing cycles, maximizing sub-shifts and
annealing traces along increasing inverse temperature.

Everything here expects an additive potential whose first-level function is
determined by one symbol (depth-1 locally constant or decay law): orbit
averages then reduce to vertex-weighted cycle means on the transition graph.
Their max-plus data is read off the row Bellman scaling of the block
operator at t = 1, the Howard policy iteration whose t-multiples scale
every transfer solve (:meth:`thermoshift.linalg.EdgeOperator.bellman_scaled`);
it needs no primitive shift.  That data is the maximum cycle mean beta, a
cycle attaining it, and the critical graph (:func:`_critical_graph`), which
is the maximizing sub-shift: its cycles have mean >= beta - _NEAR_OPTIMAL,
and every cycle of mean beta lies in it, up to Howard's tolerance.  Its
classes and their entropies are read off it, with no cycle enumeration.
``anneal`` scales the block operator once and reads the equilibrium state
at every t of its schedule off that scaling, as masses on engine rows;
``zero_temp_report`` reads the sub-shift and the leakage off that trace.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import UnsupportedEnumeration, ValidationError
from .linalg import BellmanScaling, EdgeOperator, power_iteration
from .measures import _equilibrium, _running_sum
from .potentials import Potential
from .pressure import _block_operator, _spectral_block
from .shifts import ShiftModel, _LevelWords, _strong_components, word_levels

_EXHAUSTIVE_LIMIT = 8
# an edge is critical when its reduced weight is at least -_NEAR_OPTIMAL
# (or minus the rounding of the scaling, where larger), so every cycle of
# critical edges has mean >= beta - _NEAR_OPTIMAL
_NEAR_OPTIMAL = 1e-9


def _check_depth_one(pot: Potential) -> None:
    if pot.depth != 1:
        raise ValidationError(
            "cycle means need an additive potential of depth 1")


def _bellman(shift: ShiftModel, pot: Potential) -> BellmanScaling:
    """The Bellman scaling of the block operator with the per-symbol log
    weights of ``pot``, whose ``beta`` is the maximum cycle mean."""
    _check_depth_one(pot)
    return _block_operator(shift, pot, 1.0, word_levels(shift, 2))[0].bellman_scaled()


def _critical_graph(S: BellmanScaling) -> tuple[np.ndarray, ...]:
    """The critical graph as ``(states, src, dst, label)``: the states of
    ``S.op`` it keeps, ascending; its edges, as positions in ``states`` in
    the operator's (source, target) order; and the class of each state.

    The graph keeps the edges of reduced weight ``g_u + x_v - x_u - beta``
    (the log weight of ``S.op``) >= -_NEAR_OPTIMAL that lie on a cycle of
    such edges (both ends in one strongly connected component, the class);
    the component test drops tight edges that lead off every cycle.  The
    reduced weights around a cycle sum to its length times (mean - beta),
    so every cycle kept has mean >= beta - _NEAR_OPTIMAL.  On a cycle of
    mean beta none exceeds Howard's tolerance ``1e-12 * m * max|w|`` (m
    states), so the cycle is kept whole while that tolerance times its
    length stays below _NEAR_OPTIMAL, which can fail once ``m * max|w| >
    1000``.  Where the rounding of ``x`` is larger (``m * max|x| > 2e6``)
    it sets the margin, so the cycle Howard's policy closes always stays."""
    op = S.op
    # x is summed along walks of up to m states, so a cycle of mean beta
    # can close on an edge that carries m roundings of max|x|
    rounding = 2 * op.size * float(np.abs(S.potential).max()) * np.finfo(float).eps
    tight = op.log_weight >= -max(_NEAR_OPTIMAL, rounding)
    src, dst = op.src[tight], op.dst[tight]
    # the operator's edges come sorted by source and then target
    comp = np.array(_strong_components(op.size, src * op.size + dst))
    on_cycle = comp[src] == comp[dst]
    src, dst = src[on_cycle], dst[on_cycle]
    states = np.flatnonzero(np.bincount(src, minlength=op.size))
    return (states, np.searchsorted(states, src), np.searchsorted(states, dst),
            comp[states])


def simple_cycles(shift: ShiftModel) -> list[tuple]:
    """All simple cycles, as symbol tuples rotated to start at their
    smallest vertex.  Exhaustive, so the alphabet is capped: this is the
    reference the maximizing sub-shift is checked against, and no route
    calls it."""
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


def _closed_cycle(nxt: list, u: int) -> list:
    """The cycle that the walk ``u, nxt[u], nxt[nxt[u]], ...`` closes,
    rotated to start at its smallest state."""
    walk: dict = {}
    while u not in walk:
        walk[u] = len(walk)
        u = nxt[u]
    cycle = list(walk)[walk[u]:]
    m = cycle.index(min(cycle))
    return cycle[m:] + cycle[:m]


class MaxMeanCycle(NamedTuple):
    beta: float
    cycle: tuple
    method: str              # always "howard"; kept for callers that read it


def max_mean_cycle(shift: ShiftModel, pot: Potential) -> MaxMeanCycle:
    """Largest Birkhoff mean over periodic orbits (= over simple cycles):
    Howard's beta, with the cycle that the policy walk closes from the
    first state whose policy edge is tight.  Every edge of a policy walk
    has reduced weight equal to the mean of the cycle it closes minus beta,
    so that cycle's mean is within _NEAR_OPTIMAL of beta."""
    S = _bellman(shift, pot)
    u = int(np.argmax(S.op.log_weight[S.policy] >= -_NEAR_OPTIMAL))
    cycle = _closed_cycle(S.op.dst[S.policy].tolist(), u)
    return MaxMeanCycle(S.beta, tuple(shift.symbols[i] for i in cycle), "howard")


class MaximizingSubshift(NamedTuple):
    """The critical graph of a potential: ``edges`` are its (a, b) pairs in
    code order and ``cycles`` one cycle per critical class."""

    beta: float
    symbols: tuple
    edges: tuple
    entropy: float
    cycles: tuple

    def admits(self, word) -> bool:
        word = tuple(word)
        if any(s not in self.symbols for s in word):
            return False
        return set(zip(word, word[1:])) <= set(self.edges)


def maximizing_subshift(shift: ShiftModel, pot: Potential) -> MaximizingSubshift:
    """The critical graph of Howard's beta (:func:`_critical_graph`), the
    union of the cycles of mean beta: symbols in alphabet order, edges by
    source then target.  ``cycles`` holds one cycle per class, the walk
    from its smallest state along first successors, rotated to start at
    its smallest state and sorted by (length, states).  The entropy is the
    largest log spectral radius over the classes: 0 for a class that is
    one cycle, else :func:`~thermoshift.linalg.power_iteration` on the
    class's own edge arrays (its lazy step converges at any period)."""
    return _subshift(shift, _bellman(shift, pot))


def _subshift(shift: ShiftModel, S: BellmanScaling) -> MaximizingSubshift:
    """:func:`maximizing_subshift` read off the row scaling ``S``."""
    states, src, dst, label = _critical_graph(S)
    nxt = dst[np.searchsorted(src, np.arange(len(states)))].tolist()
    # states ascend, so each class's first state is its smallest
    _, first, klass = np.unique(label, return_index=True, return_inverse=True)
    cycles = sorted((_closed_cycle(nxt, u) for u in first.tolist()),
                    key=lambda c: (len(c), c))
    entropy = 0.0
    sizes = np.bincount(klass)
    for c in np.flatnonzero(np.bincount(klass[src], minlength=len(sizes)) > sizes):
        members = np.flatnonzero(klass == c)
        inside = klass[src] == c
        op = EdgeOperator(len(members), np.searchsorted(members, src[inside]),
                          np.searchsorted(members, dst[inside]),
                          np.zeros(int(inside.sum())))
        entropy = max(entropy, math.log(power_iteration(op)[0]))
    sym = tuple(shift.symbols[i] for i in states.tolist())
    return MaximizingSubshift(
        S.beta, sym, tuple((sym[a], sym[b]) for a, b in zip(src.tolist(), dst.tolist())),
        entropy, tuple(tuple(sym[i] for i in c) for c in cycles))


def _admitted(shift: ShiftModel, sub: MaximizingSubshift,
              levels: list) -> np.ndarray:
    """:meth:`MaximizingSubshift.admits` on every row of the last of
    ``levels`` (engine levels 1..n): a level-1 row when its symbol is in the
    sub-shift, a longer row when its parent is and the edge from the
    parent's last symbol to its own is critical."""
    m = shift.n_symbols
    inside = np.isin(levels[0].last, [shift.index(s) for s in sub.symbols])
    codes = [shift.index(a) * m + shift.index(b) for a, b in sub.edges]
    for before, (last, parent, _) in zip(levels, levels[1:]):
        inside = inside[parent] & np.isin(before.last[parent] * m + last, codes)
    return inside


# -- annealing -------------------------------------------------------------


class AnnealRow:
    """One temperature of :func:`anneal`: ``masses`` are the normalised
    masses on every row of level d (0 off the support).  Rows compare by
    ``t``, ``pressure``, ``lyapunov`` and ``entropy``."""

    def __init__(self, t: float, pressure: float, lyapunov: float,
                 entropy: float, masses: np.ndarray):
        self.t, self.pressure, self.lyapunov = t, pressure, lyapunov
        self.entropy, self.masses = entropy, masses
        self._level = None       # the engine levels, set by anneal

    def _key(self) -> tuple:
        return self.t, self.pressure, self.lyapunov, self.entropy

    def __eq__(self, other):
        if type(other) is not AnnealRow:
            return NotImplemented
        return self._key() == other._key()

    @cached_property
    def marginal(self) -> dict:
        """Depth-d cylinder masses ``{word: mass}`` over the positive rows,
        in level order; spelled on first read."""
        live = np.flatnonzero(self.masses > 0)
        words = self._level.words
        return dict(zip([words[i] for i in live], self.masses[live].tolist()))


class AnnealTrace:
    """The rows of :func:`anneal` by decreasing t, and its ``clusters``:
    tuples of t sharing a marginal within ``delta``.  :func:`anneal` also
    keeps the engine levels (``_level``) and ``_scaling``, the row scaling
    of the block operator at t = 1.  Traces compare by ``rows``,
    ``clusters``, ``depth`` and ``delta``."""

    def __init__(self, rows: tuple, clusters: tuple, depth: int, delta: float):
        self.rows, self.clusters, self.depth, self.delta = rows, clusters, depth, delta
        self._level = self._scaling = None     # set by anneal

    def _key(self) -> tuple:
        return self.rows, self.clusters, self.depth, self.delta

    def __eq__(self, other):
        if type(other) is not AnnealTrace:
            return NotImplemented
        return self._key() == other._key()


def anneal(shift: ShiftModel, pot: Potential, ts: Sequence[float],
           depth: int = 6, delta: float = 1e-4) -> AnnealTrace:
    """Equilibrium statistics along a temperature schedule, with greedy
    clustering of the depth-d marginals (descending t, new cluster when the
    max cylinder-mass gap to the cluster representative exceeds delta).
    Level d of the word-level engine is enumerated once, under the word
    budget; a row keeps the masses of its rows, and its ``marginal`` spells
    the words of the positive ones when first read (the level once for all
    rows).  Every t reads its equilibrium state off one block operator."""
    ts = sorted({float(t) for t in ts}, reverse=True)
    if not ts:
        raise ValidationError("empty temperature schedule")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and >= 0, got {delta!r}")
    level = _LevelWords(shift, word_levels(shift, depth))
    block = _spectral_block(shift, pot, None, ts)
    rows, clusters = [], []
    for t in ts:
        eq = _equilibrium(shift, block, t)
        mu = eq.level_masses(level.levels)[-1]
        mu = mu / _running_sum(mu)
        row = AnnealRow(t, eq.pressure, eq.lyapunov_exact(), eq.entropy(), mu)
        row._level = level
        rows.append(row)
        if clusters and float(np.abs(head - mu).max()) <= delta:
            clusters[-1].append(t)
        else:
            clusters.append([t])
            head = mu
    trace = AnnealTrace(tuple(rows), tuple(map(tuple, clusters)), depth, delta)
    trace._level, trace._scaling = level, block[3]
    return trace


class ZeroTempReport(NamedTuple):
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
    the sub-shift.  One Howard run per side serves the trace, and the
    sub-shift is read off the trace's row scaling."""
    _check_depth_one(pot)
    trace = anneal(shift, pot, ts, depth, delta)
    sub = _subshift(shift, trace._scaling)
    cold = trace.rows[0]
    # the cold marginal's masses off the sub-shift's words (and zeros off
    # its support): fsum is exact, so the order of the rows does not matter
    leak = math.fsum(cold.masses[~_admitted(shift, sub, trace._level.levels)].tolist())
    return ZeroTempReport(sub.beta, sub, cold.t,
                          abs(cold.lyapunov - sub.beta),
                          abs(cold.entropy - sub.entropy),
                          leak, leak <= leak_tol, trace)
