"""The Perron solver and the log-domain helpers shared by the pressure and
measure code.

Nonnegative operators are held as edge arrays (:class:`EdgeOperator`, the
only input :func:`power_iteration` takes), with log weights so that cold
weights exp(t·f) neither under- nor overflow before
:meth:`EdgeOperator.bellman_scaled` brings every weight into (0, 1], or
along the log-domain walk :meth:`EdgeOperator.log_walk` that the periodic
and covering partition sums read.  :func:`log_sum_exp`, :func:`_log` and
:func:`_exp` take arrays and map ``math.exp``/``math.log`` over them, so
they give the floats of the per-element loop; :func:`_log_ints` gives those
of ``_log`` on positive integers from one table computed once per process.

An operator ``A`` has two such scalings, one per side of its Perron problem:
the row scaling ``S`` (the max-plus eigenpair of ``A``) and the column
scaling ``C`` (that of ``Aᵀ``), diagonally similar to ``A`` and ``Aᵀ``.  A
Perron vector converges in as many power steps as information needs to
cross its scaling's Howard policy forest, and that depth can differ by the
whole dimension between the two sides: on a renewal chain ``n -> n-1`` it is
``m - 1`` for ``S`` and 1 for ``C``.  :func:`dominant_pair` therefore solves
the side with the shallower forest first, from the uniform vector, and
starts the deep side from a vector built outward along its own policy
forest with the root already known: that start is exact at every state
with one out-edge, so the deep side settles in a few steps instead of
one per level of its forest.

Both scalings are built once per operator.  An operator whose log weights
are ``t·w`` has the scalings of ``w`` with every log weight and potential
multiplied by t (:meth:`BellmanScaling.at`), so one Howard run per side
serves every t.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, NumericalError
from . import shifts

TOL = 1e-13
DEFAULT_MAX_ITER = 100_000
SIGNIFICANT = 1e-280    # vector entries below this are sub-representable noise


class EdgeOperator:
    """A nonnegative square operator as edge arrays sorted by source:
    ``(A v)[u]`` is the sum of ``exp(log_weight[e]) * v[dst[e]]`` over the
    edges ``e`` with ``src[e] == u``.  ``len()`` is the dimension."""

    def __init__(self, size: int, src: np.ndarray, dst: np.ndarray,
                 log_weight: np.ndarray):
        self.size = size
        self.src = src
        self.dst = dst
        self.log_weight = log_weight

    def __len__(self) -> int:
        return self.size

    @cached_property
    def weight(self) -> np.ndarray:
        return np.exp(self.log_weight)

    @cached_property
    def T(self) -> "EdgeOperator":
        order = np.argsort(self.dst, kind="stable")
        return EdgeOperator(self.size, self.dst[order], self.src[order],
                            self.log_weight[order])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.src, self.weight * v[self.dst],
                           minlength=self.size)

    def bellman_scaled(self) -> "BellmanScaling":
        """The operator ``S_uv = A_uv exp(x_v - x_u - beta)``, where
        ``(beta, x)`` is the max-plus eigenpair of the log weights.

        ``S`` is diagonally similar to ``A / exp(beta)``, so
        ``log rho(A) = beta + log rho(S)``.  Every weight of ``S`` lies in
        (0, 1] up to the tolerance of :func:`_howard`, and every cycle of
        maximal mean weighs 1: nothing under- or overflows at any scale of
        the log weights.  ``self.T.bellman_scaled()`` is the column scaling
        ``C`` of the module docstring, an operator on the same states.
        """
        beta, x, depth, policy = _howard(self)
        log_s = self.log_weight - beta + (x[self.dst] - x[self.src])
        return BellmanScaling(beta, EdgeOperator(self.size, self.src, self.dst, log_s),
                              x, depth, policy)

    def log_walk(self, start: np.ndarray, steps: int, read) -> list:
        """``read(h)`` for n = 1..steps, where column j of ``h`` is
        ``log(exp(start[:, j])ᵀ Aⁿ)``: ``start`` holds log start values, one
        row per state and one column per walk (``-inf`` where a walk does
        not start).

        Each step ``h[v] <- log sum_{u -> v} exp(h[u] + log_weight(u -> v))``
        is one log-domain pass over the edges: exact at any scale of the log
        weights, and ``-inf`` at a state no walk reaches.  A walk of more
        than ``WORD_BUDGET`` edge visits (steps x edges x columns) raises
        :class:`BudgetExceeded` before its first step."""
        visits = steps * len(self.dst) * start.shape[1]
        budget = shifts.WORD_BUDGET     # read at call time, as the engine does
        if visits > budget:
            raise BudgetExceeded(
                f"log-domain walk of {steps} steps x {len(self.dst)} edges x "
                f"{start.shape[1]} columns exceeds budget {budget} "
                "edge visits")
        into = self.T           # edges sorted by target: into.src is the target
        head = np.diff(into.src, prepend=-1) != 0
        heads = np.flatnonzero(head)
        targets = into.src[heads]
        seg = np.cumsum(head) - 1
        lw = into.log_weight[:, None]
        h = start
        out = []
        with np.errstate(divide="ignore"):
            for _ in range(steps):
                vals = h[into.dst] + lw
                top = np.maximum.reduceat(vals, heads, axis=0)
                top = np.where(np.isfinite(top), top, 0.0)
                total = np.add.reduceat(np.exp(vals - top[seg]), heads, axis=0)
                h = np.full_like(h, -math.inf)
                h[targets] = top + np.log(total)
                out.append(read(h))
        return out


class BellmanScaling(NamedTuple):
    """An operator scaled by the max-plus eigenpair ``(beta, potential)`` of
    its log weights (:meth:`EdgeOperator.bellman_scaled`).  ``policy`` is the
    final Howard policy, one edge index of ``op`` per state, and ``depth``
    the depth of its forest: the number of steps a power iteration on
    ``op`` needs to carry information from the policy cycles to every
    state."""

    beta: float
    op: EdgeOperator
    potential: np.ndarray
    depth: int
    policy: np.ndarray

    def at(self, t: float) -> "BellmanScaling":
        """This scaling for the log weights ``t·w``, t >= 0: ``t·(w - beta
        + x[dst] - x[src])`` is a diagonal similarity of ``exp(t·w)``."""
        op = self.op
        return BellmanScaling(t * self.beta, EdgeOperator(op.size, op.src, op.dst,
                                                          t * op.log_weight),
                              t * self.potential, self.depth, self.policy)


def _howard(op: EdgeOperator) -> tuple[float, np.ndarray, int, np.ndarray]:
    """Max-plus eigenvalue ``beta`` (the largest cycle mean) and Bellman
    vector ``x`` of the log weights of an operator with an out-edge at every
    state, by Howard policy iteration (Cochet-Terrasson, Cohen, Gaubert,
    McGettrick, Quadrat 1998): ``max_v (log A_uv + x_v) = beta + x_u`` for
    every state ``u`` of an irreducible support, up to a tolerance relative
    to the largest log weight; on a reducible one the best cycle mean a
    state reaches takes the place of ``beta``, and ``v`` ranges over the
    states that reach as good a cycle.  The last two values are the depth
    of the final policy's forest and the policy itself, one edge index per
    state.

    A policy picks one out-edge per state.  Its value is the mean of the
    cycle each state's policy walk ends in, and ``x`` follows the walk
    back from that cycle.  A round switches states to edges that reach a
    larger cycle mean, or else a larger ``log A_uv + x_v`` among the edges
    into states of as good a mean; it stops when no state improves by more
    than the tolerance.

    Each round costs one walk (:func:`_policy_values`) and a few passes
    over the edges; the edge a state switches to is looked up only in a
    round where some state switches.  In a round where every cycle mean
    lies within the tolerance of every other (one class: the common case
    on a primitive support), no edge reaches a mean larger by more than
    the tolerance and every edge passes the mean filter, so the round goes
    straight to the ``log A_uv + x_v`` pass over all edges, with the same
    floats.
    """
    m, src, dst, w = op.size, op.src, op.dst, op.log_weight
    first = np.flatnonzero(np.diff(src, prepend=-1))
    if len(first) != m:
        raise NumericalError("max-plus eigenpair needs an out-edge at every state")
    tol = 1e-12 * m * max(1.0, float(np.abs(w).max()))
    edge = np.arange(len(w))

    def first_best(vals, best):
        """The first edge of each state whose value is its ``best``."""
        return np.minimum.reduceat(np.where(vals == best[src], edge, len(w)), first)

    vals = w + np.maximum.reduceat(w, first)[dst]
    policy = first_best(vals, np.maximum.reduceat(vals, first))
    x = np.zeros(m)
    for _ in range(m + 100):
        nxt = dst[policy]
        cost = w[policy]
        eta, x, depth, means = _policy_values(nxt, cost, x)
        low, high = min(means), max(means)
        if high <= low + tol and low >= high - tol:     # one class
            val = w + x[dst]
        else:
            eta = np.fromiter(eta, float, m)
            eta_dst = eta[dst]
            best = np.maximum.reduceat(eta_dst, first)
            switch = best > eta + tol
            if switch.any():
                policy = np.where(switch, first_best(eta_dst, best), policy)
                continue
            val = np.where(eta_dst >= eta[src] - tol, w + x[dst], -math.inf)
        best = np.maximum.reduceat(val, first)
        switch = best > cost + x[nxt] + tol
        if not switch.any():
            return high, x, max(depth), policy
        policy = np.where(switch, first_best(val, best), policy)
    raise NumericalError("max-plus policy iteration did not settle")


def _policy_values(nxt: np.ndarray, cost: np.ndarray,
                   x_prev: np.ndarray) -> tuple[list, np.ndarray, list, list]:
    """Cycle mean ``eta`` and potential ``x`` of every state under a policy
    that steps from state ``v`` to ``nxt[v]`` at log weight ``cost[v]``,
    the depth of every state in the policy forest (the length of its walk
    to the cycle it ends in) and the mean of every cycle; ``eta``, the
    depths and the means as lists.

    One walk per state in index order, from each state not yet valued.  A
    state whose successor already has a value is valued from it in place,
    as ``x_v = cost_v - eta + x_nxt(v)``; only a walk that goes further
    keeps a path, values the cycle it closes (its mean is the ``eta`` of
    the walk) and then its path backwards by the same formula.  Each new
    cycle keeps the previous ``x`` of the state where its walk first
    closed, the anchor, so that values only move where the policy did."""
    c = cost.tolist()
    m = len(c)
    x = x_prev.tolist()
    eta = [0.0] * m
    depth = [-1] * m        # -1 unseen, -2 on the walk under way
    means = []
    nxt = nxt.tolist()
    for s, u in enumerate(nxt):
        if depth[s] >= 0:
            continue
        d = depth[u]
        if d >= 0:              # a valued successor: value s in place
            depth[s] = d + 1
            e = eta[s] = eta[u]
            x[s] = c[s] - e + x[u]
            continue
        depth[s] = -2
        path = [s]
        while depth[u] == -1:
            depth[u] = -2
            path.append(u)
            u = nxt[u]
        cycle = ()
        if depth[u] < 0:        # this walk closed a new cycle at u; x[u] stays
            k = path.index(u)
            cycle = path[k:]
            eta[u] = math.fsum(c[v] for v in cycle) / len(cycle)
            means.append(eta[u])
            depth[u] = 0
            del path[k]
        # the rest of the cycle, then the tail, each from its successor
        e = eta[u]
        for v in reversed(path):
            u = nxt[v]
            eta[v] = e
            x[v] = c[v] - e + x[u]
            depth[v] = depth[u] + 1
        for v in cycle:         # cycle states have depth 0
            depth[v] = 0
    return eta, np.fromiter(x, float, m), depth, means


def power_iteration(op: EdgeOperator, max_iter: int = DEFAULT_MAX_ITER,
                    start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Perron root and right eigenvector of a nonnegative operator held as
    edge arrays.

    The run starts from ``start`` (a positive vector; by default the
    uniform one), renormalises in L1 and is deterministic.  Each step is the
    lazy step ``v <- S (S v / s + v)``, ``s`` the current root estimate:
    ``S/s + I`` maps an eigenvalue ``-s`` to 0, so a nearly periodic
    spectrum cannot stall the run, and the outer ``S`` keeps the small
    eigenvector entries converging as fast as plain iteration does.
    Convergence requires the root estimate and every significant vector
    component to settle to relative tolerance ``TOL`` (componentwise,
    because eigenvector entries can span hundreds of orders of magnitude
    and downstream ratios need their relative accuracy); the root returned
    is the estimate at the returned vector.  The rate is still the ratio of
    the two leading eigenvalue moduli, so two maximal cycles that no
    critical edge joins (their leading eigenvalues merge as the weights
    cool) can exhaust ``max_iter``.
    """
    if start is None:
        v = np.full(op.size, 1.0 / op.size)
    else:
        v = start / start.sum()
    lam_prev = math.inf
    for _ in range(max_iter):
        u = op.matvec(v)
        s = float(u.sum())
        if not math.isfinite(s) or s <= 0.0:
            raise NumericalError("power iteration collapsed (zero or non-finite growth)")
        w = op.matvec(u / s + v)
        w /= w.sum()
        if (abs(s - lam_prev) <= TOL * max(abs(s), 1.0)
                and _relative_step(w, v) <= TOL):
            return float(op.matvec(w).sum()), w
        lam_prev = s
        v = w
    raise NumericalError(
        f"power iteration failed to converge within {max_iter} iterations")


def _relative_step(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a), np.abs(b))
    sig = denom > SIGNIFICANT
    if not sig.any():
        return 0.0
    return float(np.max(np.abs(a - b)[sig] / denom[sig]))


def root_side(S: BellmanScaling,
              C: BellmanScaling) -> tuple[BellmanScaling, float, np.ndarray]:
    """The side of ``A``'s row and column scalings whose Howard policy
    forest is shallower (ties go to ``S``), with the Perron root ``rho``
    and right vector of its ``op``: ``side.beta + log rho`` is the log of
    the Perron root of ``A``.  The depth is the number of power steps the
    cold solve needs to reach every state (1 against 1199 on the renewal
    truncation at 1200 symbols)."""
    first = S if S.depth <= C.depth else C
    rho, vector = power_iteration(first.op)
    return first, rho, vector


def _forest_start(side: BellmanScaling, log_rho: float) -> np.ndarray:
    """A start vector for the Perron vector of ``side.op`` once its root
    ``exp(log_rho)`` is known, built outward along the Howard policy
    forest: 0 on the policy cycles and
    ``log v_u = log(sum_v W_uv) - log_rho + log v_policy(u)``, ``W`` the
    scaled operator.  It is exact at every state with a single out-edge.

    Both walks double their stride each round, so the pass takes
    ``log2(depth)`` array steps: once to find the cycles (the image of a
    policy step longer than the forest is deep is exactly the set of cycle
    states), once to sum the logs along the paths into them."""
    op, m = side.op, side.op.size
    nxt = op.dst[side.policy]
    rounds = side.depth.bit_length()        # 2**rounds > depth
    jump = nxt
    for _ in range(rounds):
        jump = jump[jump]
    on_cycle = np.zeros(m, dtype=bool)
    on_cycle[jump] = True
    step = np.where(on_cycle, np.arange(m), nxt)
    log_v = np.log(np.bincount(op.src, op.weight, minlength=m)) - log_rho
    log_v[on_cycle] = 0.0
    for _ in range(rounds):
        log_v = log_v + log_v[step]
        step = step[step]
    # no entry starts at zero or below the significance threshold
    return np.maximum(np.exp(log_v - log_v.max()), 2 * SIGNIFICANT)


def dominant_pair(S: BellmanScaling, C: BellmanScaling) -> tuple[
        BellmanScaling, float, np.ndarray, np.ndarray, float]:
    """``(S, rho, right, log_left, log_root)`` of a nonnegative operator
    ``A`` from its row scaling ``S`` and column scaling ``C``, each side
    solved in its own scaling: the Perron root of ``S.op``, its
    L1-normalised right vector, its log left vector (up to a constant) and
    the log Perron root of ``A``.

    The right vector is the Perron vector of ``S``, the left one that of
    ``C``, where ``C_vu = A_uv exp(y_u - y_v - beta)`` for the max-plus
    eigenpair ``(beta, y)`` of ``Aᵀ``.  ``C`` is diagonally similar to
    ``Aᵀ``, so the left vector of ``S`` is ``exp(x + y)`` times the right
    vector of ``C``; it is returned in log form because ``x + y`` can
    exceed the float range.

    :func:`root_side` solves the side with the shallower policy forest
    from the uniform vector; the other side starts from its policy-forest
    vector (:func:`_forest_start`) with the root moved into its scaling.
    ``log_root`` is the first side's ``beta + log rho``, the value
    ``transfer_pressure`` reports.  The two sides' roots must agree to
    1e-9 relative, and ``rho`` is their mean in the scaling of ``S``.
    """
    first, rho, vector = root_side(S, C)
    second = C if first is S else S
    # the first root, moved into the second side's scaling
    log_rho = math.log(rho) + first.beta - second.beta
    lam, other = power_iteration(second.op, start=_forest_start(second, log_rho))
    sides = [(rho, vector), (lam, other)]
    (lam_r, right), (lam_l, left) = sides if first is S else sides[::-1]
    lam_l *= math.exp(C.beta - S.beta)
    if abs(lam_r - lam_l) > 1e-9 * max(abs(lam_r), abs(lam_l), 1.0):
        raise NumericalError(
            f"left/right spectral estimates disagree: {lam_r!r} vs {lam_l!r}")
    with np.errstate(divide="ignore"):
        log_left = S.potential + C.potential + np.log(left)
    return (S, 0.5 * (lam_r + lam_l), right, log_left,
            first.beta + math.log(rho))


def _floats(values) -> np.ndarray:
    """``values`` (an array or any iterable of numbers) as a float array."""
    if isinstance(values, np.ndarray):
        return values.astype(float, copy=False)
    return np.fromiter(values, dtype=float)


def _log(x) -> np.ndarray:
    """Elementwise math.log: numpy's log can differ from it in the last bit."""
    vals = _floats(x).tolist()
    return np.fromiter(map(math.log, vals), dtype=float, count=len(vals))


# _LOG_TABLE[i] is math.log(i) (index 0 holds its limit, -inf), shared by
# every caller and never written: _log_ints swaps in a longer copy when an
# integer past its end is asked for, up to _LOG_TABLE_CAP entries.
_LOG_TABLE = np.array([-math.inf, 0.0])
_LOG_TABLE.flags.writeable = False
_LOG_TABLE_CAP = 1 << 16


def _log_ints(k: np.ndarray) -> np.ndarray:
    """``_log`` of an integer array ``k`` of positive entries, read by index
    from a process-wide table of math.log(0..n) grown on demand (math.log of
    an int below 2**53 is math.log of its float).  An entry at or past
    ``_LOG_TABLE_CAP`` maps math.log over ``k`` instead."""
    global _LOG_TABLE
    top = int(k.max(initial=0))
    if top >= len(_LOG_TABLE):
        if top >= _LOG_TABLE_CAP:
            return _log(k)
        old = _LOG_TABLE
        grown = np.empty(top + 1)
        grown[:len(old)] = old
        grown[len(old):] = _log(np.arange(len(old), top + 1))
        grown.flags.writeable = False
        _LOG_TABLE = grown
    return _LOG_TABLE[k]


def _exp(x) -> np.ndarray:
    """Elementwise math.exp: numpy's exp can differ from it in the last bit."""
    vals = _floats(x).tolist()
    return np.fromiter(map(math.exp, vals), dtype=float, count=len(vals))


def log_sum_exp(values) -> float:
    """log(sum(exp(v))) with the usual max shift; -inf for an empty input.

    ``values`` is an array or any iterable of numbers.  The shift is one
    numpy subtraction and the exponentials are math.exp under math.fsum,
    so the result is the same float as the per-element loop gives."""
    x = _floats(values)
    if not x.size:
        return -math.inf
    m = float(x[0] if x.size == 1 else x.max())
    if not math.isfinite(m):        # all -inf, or an inf or nan term
        return m
    return m + math.log(math.fsum(map(math.exp, (x - m).tolist())))
