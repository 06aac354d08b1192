"""Howard policy iteration (``linalg._howard``) against a frozen reference
and against exhaustive cycle search.

The reference is the earlier per-state walk, kept verbatim below: the
current walk values a state whose policy successor already has a value in
place and skips the cycle-mean pass in one-class rounds, and both must give
bitwise the same ``(beta, x, depth, policy)`` as the reference.  On a
reducible support the best cycle mean a state reaches takes the place of
``beta``; that is checked against every simple cycle of small graphs.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from thermoshift import (DecayPotential, LocallyConstant, RenewalRule,
                         ShiftModel)
from thermoshift.errors import NumericalError
from thermoshift.linalg import EdgeOperator
from thermoshift import linalg
from thermoshift.pressure import _block_operator
from thermoshift.shifts import word_levels


# -- the reference: the walk and rounds as they were, verbatim ----------------


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
    larger cycle mean, or else a larger ``log A_uv + x_v``; it stops when
    no state improves by more than the tolerance.
    """
    m, src, dst, w = op.size, op.src, op.dst, op.log_weight
    first = np.flatnonzero(np.diff(src, prepend=-1))
    if len(first) != m:
        raise NumericalError("max-plus eigenpair needs an out-edge at every state")
    tol = 1e-12 * m * max(1.0, float(np.abs(w).max()))
    edge = np.arange(len(w))

    def first_best(vals):
        best = np.maximum.reduceat(vals, first)
        return best, np.minimum.reduceat(
            np.where(vals == best[src], edge, len(w)), first)

    policy = first_best(w + np.maximum.reduceat(w, first)[dst])[1]
    x = np.zeros(m)
    for _ in range(m + 100):
        eta, x, depth = _policy_values(policy, dst, w, x)
        best_eta, to = first_best(eta[dst])
        switch = best_eta > eta + tol
        if not switch.any():
            val = np.where(eta[dst] >= eta[src] - tol, w + x[dst], -math.inf)
            best, to = first_best(val)
            switch = best > w[policy] + x[dst[policy]] + tol
            if not switch.any():
                return float(eta.max()), x, depth, policy
        policy = np.where(switch, to, policy)
    raise NumericalError("max-plus policy iteration did not settle")


def _policy_values(policy: np.ndarray, dst: np.ndarray, w: np.ndarray,
                   x_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Cycle mean ``eta`` and potential ``x`` of every state under a policy,
    and the depth of its forest: the longest walk from a state to the
    cycle it ends in.  Each new cycle keeps the previous ``x`` of the state
    where its walk first closed, so that values only move where the policy
    did."""
    nxt = dst[policy].tolist()
    c = w[policy].tolist()
    m = len(nxt)
    x = x_prev.tolist()
    eta = [0.0] * m
    depth = [0] * m
    mark = [-1] * m         # -1 unseen, else the walk that reached the state
    for s in range(m):
        if mark[s] >= 0:
            continue
        path = []
        u = s
        while mark[u] < 0:
            mark[u] = s
            path.append(u)
            u = nxt[u]
        if mark[u] == s:    # this walk closed a new cycle at u; x[u] stays
            k = path.index(u)
            cycle, path = path[k:], path[:k]
            e = eta[u] = math.fsum(c[v] for v in cycle) / len(cycle)
            for v in reversed(cycle[1:]):
                eta[v] = e
                x[v] = c[v] - e + x[nxt[v]]
        # the tail runs into u: walk it back from there
        e, d, xv = eta[u], depth[u], x[u]
        for v in reversed(path):
            d += 1
            xv = c[v] - e + xv
            eta[v], x[v], depth[v] = e, xv, d
    return np.array(eta), np.array(x), max(depth)


# -- seeded graphs -------------------------------------------------------------


def _operator(m: int, edges: set, values) -> EdgeOperator:
    src, dst = np.array(sorted(edges)).T.reshape(2, -1)
    return EdgeOperator(m, src, dst, np.asarray(values, dtype=float))


def _blocks(rng: random.Random, m: int, count: int) -> list[range]:
    cuts = sorted(rng.sample(range(1, m), min(m - 1, count - 1)))
    return [range(a, b) for a, b in zip([0] + cuts, cuts + [m])]


def _support(rng: random.Random, m: int, kind: str) -> set:
    """Edges of a primitive, periodic or reducible graph on m states, each
    state with an out-edge."""
    edges = set()
    if kind == "primitive":
        edges |= {(i, (i + 1) % m) for i in range(m)} | {(0, 0)}
        edges |= {(i, j) for i in range(m) for j in range(m) if rng.random() < 0.2}
    elif kind == "periodic":       # edges only from class k to class k + 1
        p = rng.randint(1, min(m, 4))       # state i is in class i % p
        edges |= {(i, (i + 1) % (m if m % p == 0 else p)) for i in range(m)}
        edges |= {(i, j) for i in range(m) for j in range(m)
                  if j % p == (i + 1) % p and rng.random() < 0.3}
    else:                           # strongly connected blocks, joined forward
        blocks = _blocks(rng, m, rng.randint(1, 4))
        for b in blocks:
            edges |= {(i, b[(k + 1) % len(b)]) for k, i in enumerate(b)}
            edges |= {(i, j) for i in b for j in b if rng.random() < 0.3}
        for a, b in itertools.combinations(blocks, 2):
            edges |= {(i, j) for i in a for j in b if rng.random() < 0.1}
    return edges


def random_operator(seed: int) -> EdgeOperator:
    rng = random.Random(seed)
    m = rng.randint(1, 40)
    edges = _support(rng, m, ("primitive", "periodic", "reducible")[seed % 3])
    scale = (1.0, 10.0, 1000.0)[seed // 3 % 3]
    if seed // 9 % 2:
        values = [rng.gauss(0.0, 1.0) for _ in edges]
    else:
        values = [rng.choice((1.0, 0.0, -2.0, 0.5)) for _ in edges]
    return _operator(m, edges, [scale * v for v in values])


def _block(shift: ShiftModel, pot, depth: int) -> EdgeOperator:
    return _block_operator(shift, pot, 1.0, word_levels(shift, depth + 1))[0]


def _assert_same(op: EdgeOperator) -> tuple:
    beta, x, depth, policy = linalg._howard(op)
    want = _howard(op)
    assert beta == want[0]
    assert x.tobytes() == want[1].tobytes()
    assert depth == want[2]
    assert np.array_equal(policy, want[3])
    return beta, x, depth, policy


@pytest.mark.parametrize("start", range(0, 1200, 200))
def test_howard_is_bitwise_the_reference_on_seeded_graphs(start):
    # primitive, periodic and reducible supports (seed % 3), value scales
    # 1, 10 and 1000 (seed // 3 % 3), tied or Gaussian values (seed // 9 % 2)
    for seed in range(start, start + 200):
        _assert_same(random_operator(seed))


def test_howard_is_bitwise_the_reference_on_the_benchmark_blocks():
    renewal = _block(RenewalRule().truncate(1200), DecayPotential("log", 2.0), 1)
    assert _assert_same(renewal)[2] == 1199         # the row side: n -> n - 1
    assert _assert_same(renewal.T)[2] == 1          # the column side
    rng = random.Random(4)
    table = {w: rng.uniform(-1.0, 0.0) for w in itertools.product(range(4), repeat=3)}
    full4 = _block(ShiftModel.full(4), LocallyConstant(table, 3), 3)
    assert full4.size == 64
    for op in (full4, full4.T):
        _assert_same(op)


# -- reducible supports: the best reachable cycle mean -------------------------


def _cycle_means(m: int, succ: list, w: dict) -> list:
    """(states, mean) of every simple cycle, each found once from its
    smallest state."""
    out = []
    for s in range(m):
        stack = [(s, [s])]
        while stack:
            u, path = stack.pop()
            for v in succ[u]:
                if v == s:
                    cyc = path + [s]
                    out.append((set(path), math.fsum(
                        w[a, b] for a, b in zip(cyc, cyc[1:])) / len(path)))
                elif v > s and v not in path:
                    stack.append((v, path + [v]))
    return out


def _reach(m: int, succ: list) -> list:
    out = []
    for s in range(m):
        seen, todo = {s}, [s]
        while todo:
            for v in succ[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        out.append(seen)
    return out


def _check_reducible(seed: int) -> None:
    rng = random.Random(f"reducible:{seed}")
    m = rng.randint(2, 8)
    blocks = _blocks(rng, m, rng.randint(2, min(m, 4)))
    edges = set()
    for b in blocks:
        # a block may be one state without a loop, passing straight on
        if len(b) > 1 or b is blocks[-1] or rng.random() < 0.5:
            edges |= {(i, b[(k + 1) % len(b)]) for k, i in enumerate(b)}
        edges |= {(i, j) for i in b for j in b if rng.random() < 0.3}
    for a, b in itertools.combinations(blocks, 2):
        edges |= {(i, j) for i in a for j in b if rng.random() < 0.3}
    for a, b in zip(blocks, blocks[1:]):    # every state keeps an out-edge
        edges |= {(i, b[0]) for i in a if not any(e[0] == i for e in edges)}
    tied = seed % 2 == 0
    w = {e: (rng.choice((1.0, 0.0, -2.0, 0.5)) if tied else rng.gauss(0.0, 1.0))
         for e in sorted(edges)}
    op = _operator(m, edges, list(w.values()))
    beta, x, _, _ = linalg._howard(op)

    succ = [sorted(j for i, j in edges if i == u) for u in range(m)]
    cycles = _cycle_means(m, succ, w)
    eta = [max(mean for states, mean in cycles if states & reach)
           for reach in _reach(m, succ)]
    assert beta == pytest.approx(max(eta), abs=1e-9)
    for u in range(m):
        best = max(w[u, v] + x[v] for v in succ[u] if eta[v] >= eta[u] - 1e-9)
        assert best == pytest.approx(eta[u] + x[u], abs=1e-9)


@pytest.mark.parametrize("start", range(0, 400, 100))
def test_howard_takes_the_best_reachable_cycle_mean_on_reducible_supports(start):
    # blocks joined only forward, 2-8 states: eta_u is the best mean of a
    # cycle reachable from u, found by exhaustive search
    for seed in range(start, start + 100):
        _check_reducible(seed)
