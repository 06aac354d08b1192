"""Both sides of the Perron problem, each in its own Bellman scaling.

The block operator B has a row scaling S (Howard on B) and a column scaling
C (Howard on Bᵀ).  ``dominant_pair`` solves the right vector on S and the
left one on C; ``transfer_pressure`` solves the root on the side with the
shallower policy forest.  The oracles are plain power iteration on ``S.T``
(the left solve the column scaling replaces), the other side's root, and a
matvec count on the renewal chain.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from test_cold import COLD, GOLDEN, random_primitive
from thermoshift import (DecayPotential, LocallyConstant, RenewalRule,
                         admissible_words, dominant_pair, power_iteration,
                         rpf_equilibrium, transfer_pressure,
                         weighted_block_matrix)
from thermoshift.linalg import EdgeOperator

RENEWAL = RenewalRule().truncate(1200)
DECAY = DecayPotential("log", 2.0)


def random_block(seed: int):
    """A random primitive graph of 2-30 symbols with a random table of
    depth 1 or 2, and its block operator at a random t."""
    rng = random.Random(seed)
    shift = random_primitive(rng, rng.randint(2, 30))
    depth = 1 + seed % 2
    pot = LocallyConstant({w: rng.uniform(-3.0, 1.0)
                           for w in admissible_words(shift, depth)}, depth)
    t = rng.choice([0.5, 1.0, 3.0, 10.0])
    return weighted_block_matrix(shift, pot, t, depth=depth)[1]


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
    S, rho, right, log_left = dominant_pair(B)
    lam, want = power_iteration(S.op.T)
    assert rho == pytest.approx(lam, rel=1e-12)
    assert_componentwise(left_in_scaled_coordinates(log_left), want, 1e-10)
    _, want_right = power_iteration(S.op)
    assert np.array_equal(right, want_right)


@pytest.mark.parametrize("t", [1.0, 17.0, 50.0, 800.0, 1e4])
def test_left_vector_on_the_cold_golden_mean(t):
    B = weighted_block_matrix(GOLDEN, COLD, t)[1]
    S, _, _, log_left = dominant_pair(B)
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
    calls = []
    original = EdgeOperator.matvec

    def spy(self, v):
        calls.append(self.size)
        return original(self, v)

    monkeypatch.setattr(EdgeOperator, "matvec", spy)
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
    ref = dataclasses.replace(eq, pi=pi / pi.sum())
    assert eq.entropy() == pytest.approx(ref.entropy(), rel=1e-12)
    assert eq.lyapunov_exact() == pytest.approx(ref.lyapunov_exact(), rel=1e-12)
