"""Both sides of the Perron problem, each in its own Bellman scaling.

The block operator B has a row scaling S (Howard on B) and a column scaling
C (Howard on Bᵀ).  ``dominant_pair`` solves the right vector on S and the
left one on C.  It solves the side with the shallower policy forest first,
which is all ``transfer_pressure`` solves, and starts the other side from its
policy forest.  The oracles are plain power iteration from the uniform
vector on ``S`` and ``S.T`` (the left solve the column scaling replaces),
the other side's root, the dense transition matrix, and matvec and memory
counts on the renewal chain.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from test_cold import COLD, GOLDEN, random_primitive
from thermoshift import (ConditionNotMet, DecayPotential, LocallyConstant,
                         RenewalRule, RPFEquilibrium, ShiftModel, ValidationError,
                         admissible_words, anneal, dominant_pair, linalg,
                         power_iteration, pressure, pressure_curve,
                         rpf_equilibrium, transfer_pressure,
                         weighted_block_matrix, word_levels, zero_temp_report)
from thermoshift.linalg import EdgeOperator, root_side
from thermoshift.shifts import _words

RENEWAL = RenewalRule().truncate(1200)
DECAY = DecayPotential("log", 2.0)


def random_model(seed: int):
    """(shift, potential, t, depth): a random primitive graph of 2-30
    symbols with a random table of depth 1 or 2, at a random t."""
    rng = random.Random(seed)
    shift = random_primitive(rng, rng.randint(2, 30))
    depth = 1 + seed % 2
    pot = LocallyConstant({w: rng.uniform(-3.0, 1.0)
                           for w in admissible_words(shift, depth)}, depth)
    t = rng.choice([0.5, 1.0, 3.0, 10.0])
    return shift, pot, t, depth


def random_block(seed: int):
    """The block operator of :func:`random_model`."""
    shift, pot, t, depth = random_model(seed)
    return weighted_block_matrix(shift, pot, t, depth=depth)[1]


def count_matvecs(monkeypatch) -> list:
    calls = []
    original = EdgeOperator.matvec

    def spy(self, v):
        calls.append(self.size)
        return original(self, v)

    monkeypatch.setattr(EdgeOperator, "matvec", spy)
    return calls


def left_in_scaled_coordinates(log_left: np.ndarray) -> np.ndarray:
    left = np.exp(log_left - log_left.max())
    return left / left.sum()


def assert_componentwise(a: np.ndarray, b: np.ndarray, tol: float) -> None:
    sig = np.maximum(a, b) > 1e-280
    assert np.array_equal(sig, np.maximum(a, b) > 0)
    assert (np.abs(a - b)[sig] / np.maximum(a, b)[sig]).max() <= tol


@pytest.mark.parametrize("seed", range(40))
def test_left_vector_from_column_scaling_matches_row_scaling(seed):
    B = random_block(seed)
    S, rho, right, log_left, _ = dominant_pair(B.bellman_scaled(),
                                                B.T.bellman_scaled())
    lam, want = power_iteration(S.op.T)
    assert rho == pytest.approx(lam, rel=1e-12)
    assert_componentwise(left_in_scaled_coordinates(log_left), want, 1e-10)
    _, want_right = power_iteration(S.op)
    assert_componentwise(right, want_right, 1e-12)


@pytest.mark.parametrize("t", [1.0, 17.0, 50.0, 800.0, 1e4])
def test_left_vector_on_the_cold_golden_mean(t):
    B = weighted_block_matrix(GOLDEN, COLD, t)[1]
    S, _, _, log_left, _ = dominant_pair(B.bellman_scaled(), B.T.bellman_scaled())
    _, want = power_iteration(S.op.T)
    assert_componentwise(left_in_scaled_coordinates(log_left), want, 1e-10)


@pytest.mark.parametrize("seed", range(40))
def test_transfer_root_does_not_depend_on_the_side(seed):
    B = random_block(seed)
    roots = []
    for side in (B.bellman_scaled(), B.T.bellman_scaled()):
        rho, _ = power_iteration(side.op)
        roots.append(side.beta + math.log(rho))
    assert roots[0] == pytest.approx(roots[1], rel=1e-13, abs=1e-13)


def test_forest_depths_on_the_renewal_chain():
    B = weighted_block_matrix(RENEWAL, DECAY, 1.2)[1]
    # the chain n -> n-1 is the only row policy; every column policy
    # reaches symbol 1 in one step
    assert B.bellman_scaled().depth == 1199
    assert B.T.bellman_scaled().depth == 1


def test_renewal_transfer_solve_takes_few_matvecs(monkeypatch):
    calls = count_matvecs(monkeypatch)
    est = transfer_pressure(RENEWAL, DECAY, 1.2)
    assert 0 < len(calls) <= 100          # 1739 on the row scaling
    monkeypatch.undo()
    B = weighted_block_matrix(RENEWAL, DECAY, 1.2)[1]
    S = B.bellman_scaled()
    rho, _ = power_iteration(S.op)
    assert est.value == pytest.approx(S.beta + math.log(rho), rel=1e-13)


def test_renewal_equilibrium_matches_the_row_scaled_left_solve():
    eq = rpf_equilibrium(RENEWAL, DECAY, 1.2)
    # the stationary weights from the left vector of S.T itself
    B = weighted_block_matrix(RENEWAL, DECAY, 1.2)[1]
    S = B.bellman_scaled()
    _, right = power_iteration(S.op)
    _, left = power_iteration(S.op.T)
    pi = left * right
    ref = RPFEquilibrium(eq.shift, eq.t, eq.depth, eq.states, pi / pi.sum(),
                         eq.pressure, eq.src, eq.dst, eq.prob, eq.f)
    assert eq.entropy() == pytest.approx(ref.entropy(), rel=1e-12)
    assert eq.lyapunov_exact() == pytest.approx(ref.lyapunov_exact(), rel=1e-12)


def test_renewal_equilibrium_takes_few_matvecs(monkeypatch):
    calls = count_matvecs(monkeypatch)
    rpf_equilibrium(RENEWAL, DECAY, 1.2)
    # 1762 with the deep (row) side started from the uniform vector
    assert 0 < len(calls) <= 50


def test_renewal_equilibrium_holds_no_dense_matrix():
    rpf_equilibrium(RENEWAL, DECAY, 1.2)    # the shift's cached data
    tracemalloc.start()
    try:
        rpf_equilibrium(RENEWAL, DECAY, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6                       # a dense 1200 x 1200 p is 11.5 MB


@pytest.mark.parametrize("seed", range(40))
def test_equilibrium_pressure_is_the_transfer_value(seed):
    shift, pot, t, depth = random_model(seed)
    eq = rpf_equilibrium(shift, pot, t, depth=depth)
    assert eq.pressure == transfer_pressure(shift, pot, t, depth=depth).value


@pytest.mark.parametrize("shift, pot, t", [
    (RENEWAL, DECAY, 1.2),
    *((GOLDEN, COLD, t) for t in (1.0, 17.0, 50.0, 800.0, 1e4))])
def test_equilibrium_pressure_is_the_transfer_value_on_the_examples(shift, pot, t):
    eq = rpf_equilibrium(shift, pot, t)
    assert eq.pressure == transfer_pressure(shift, pot, t).value


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_chain_masses_match_the_dense_matrix(seed):
    shift, pot, t, depth = random_model(seed)
    eq = rpf_equilibrium(shift, pot, t, depth=depth)
    p, pi = eq.p.tolist(), eq.pi.tolist()
    index = {w: i for i, w in enumerate(eq.states)}

    def dense_mass(word):
        path = [index[word[k:k + depth]] for k in range(len(word) - depth + 1)]
        mass = pi[path[0]]
        for a, b in zip(path, path[1:]):
            mass *= p[a][b]
        return mass

    levels = word_levels(shift, depth + 2)
    got = eq.level_masses(levels)
    for n in range(depth, depth + 3):
        words = [tuple(shift.symbols[i] for i in row)
                 for row in _words(levels[:n]).tolist()]
        want = [dense_mass(w) for w in words]
        assert got[n - 1].tolist() == want
        assert [eq.mass(w) for w in words] == want
    if depth == 1:                          # transitions off the graph too
        for a in shift.symbols:
            for b in shift.symbols:
                assert eq.mass((a, b)) == dense_mass((a, b))


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0, 10.0])
def test_scaled_block_root_matches_howard_run_at_t(t):
    # the scalings at t are t times those at t = 1; the oracle runs Howard
    # on the block operator with log weights t f_1 itself
    worst = 0.0
    for seed in range(200):
        shift, pot, _, depth = random_model(seed)
        B = weighted_block_matrix(shift, pot, t, depth=depth)[1]
        first, rho, _ = root_side(B.bellman_scaled(), B.T.bellman_scaled())
        want = first.beta + math.log(rho)
        got = transfer_pressure(shift, pot, t, depth=depth).value
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-13


@pytest.mark.parametrize("seed", range(20))
def test_curve_points_are_the_one_t_equilibria(seed):
    shift, pot, _, _ = random_model(seed)
    ts = [0.5, 1.0, 3.0, 10.0]
    for point, t in zip(pressure_curve(shift, pot, ts).points, ts, strict=True):
        eq = rpf_equilibrium(shift, pot, t)
        assert (point.pressure, point.lyapunov) == (eq.pressure, eq.lyapunov_exact())


FULL2, BERNOULLI = ShiftModel.full(2), LocallyConstant({0: 0.0, 1: -1.0})


@pytest.mark.parametrize("call, runs", [
    (lambda: pressure_curve(FULL2, BERNOULLI, [1.0, 1.5, 2.0, 2.5, 3.0]), 2),
    (lambda: anneal(FULL2, BERNOULLI, [2.0, 4.0, 6.0, 8.0, 10.0], depth=4), 2),
    # the inputs of configs/zerotemp_full2.json; the maximizing sub-shift
    # is read off the trace's row scaling
    (lambda: zero_temp_report(FULL2, BERNOULLI, [2.0, 4.0, 6.0, 8.0, 10.0],
                              depth=6), 2),
    (lambda: transfer_pressure(FULL2, BERNOULLI, 2.0), 2),
    (lambda: rpf_equilibrium(FULL2, BERNOULLI, 2.0), 2),
])
def test_howard_runs_once_per_side_for_every_t(monkeypatch, call, runs):
    calls = []
    original = linalg._howard

    def spy(op):
        calls.append(op.size)
        return original(op)

    monkeypatch.setattr(linalg, "_howard", spy)
    call()
    assert len(calls) == runs


@pytest.mark.parametrize("t", [-1.0, -1e-9, math.inf, -math.inf, math.nan])
def test_spectral_route_rejects_a_bad_t_before_building(monkeypatch, t):
    def forbidden(*args, **kwargs):
        raise AssertionError("block built before the t check")

    monkeypatch.setattr(pressure, "_block_operator", forbidden)
    for call in (lambda: transfer_pressure(FULL2, BERNOULLI, t),
                 lambda: rpf_equilibrium(FULL2, BERNOULLI, t),
                 lambda: anneal(FULL2, BERNOULLI, [t, 2.0], depth=2)):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            call()
    if math.isfinite(t):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            pressure_curve(FULL2, BERNOULLI, [t, 2.0])


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_spectral_route_checks_primitivity_before_t(t):
    # a non-primitive shift is ConditionNotMet at any t, the error
    # best_pressure falls back on
    flip = ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])
    for call in (lambda: transfer_pressure(flip, BERNOULLI, t),
                 lambda: rpf_equilibrium(flip, BERNOULLI, t)):
        with pytest.raises(ConditionNotMet):
            call()
