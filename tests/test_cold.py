"""The cold regime and the Bellman-scaled block operator.

On the golden mean with f = {0: -1, 1: 0} the Perron root solves
lambda^2 = e^(-t) (lambda + 1), and the spectrum is nearly period-2 once t
is large: the transfer route has to hold there at any t.  The oracles are
closed forms, Karp's recurrence, brute-force periodic sums over every
closed walk and exact integer closed-walk counts.
"""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import _golden_cold_entropy
from test_engine import mixing_graphs
from test_pressure import dense_operator
from test_zerotemp import karp_beta
from thermoshift import (AffinePotential, DecayPotential, LocallyConstant,
                         MatrixCocycle, RenewalRule, RPFEquilibrium, ShiftModel,
                         best_pressure, gurevich_estimate, log_sum_exp,
                         power_iteration, rpf_equilibrium, shifts,
                         transfer_pressure, weighted_block_matrix)
from thermoshift.cli import main
from thermoshift.linalg import _howard

GOLDEN = ShiftModel.golden_mean()
COLD = LocallyConstant({0: -1.0, 1: 0.0})
COLD_TS = (16, 17, 24, 50, 100, 745, 800, 1e3, 1e4)


def golden_cold_pressure(t: float) -> float:
    """log lambda for lambda^2 = e^(-t) (lambda + 1), written as
    -t/2 + log((y + sqrt(y^2 + 4)) / 2) with y = e^(-t/2), so nothing
    underflows."""
    y = math.exp(-t / 2)
    return -t / 2 + math.log((y + math.sqrt(y * y + 4)) / 2)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("t", COLD_TS)
def test_cold_golden_mean_pressure_at_any_t(t):
    want = golden_cold_pressure(t)
    assert rel(transfer_pressure(GOLDEN, COLD, t).value, want) <= 1e-12
    assert rel(rpf_equilibrium(GOLDEN, COLD, t).pressure, want) <= 1e-12
    best = best_pressure(GOLDEN, COLD, t)
    assert best.route == "transfer"
    assert rel(best.value, want) <= 1e-12


@pytest.mark.parametrize("route", ["transfer", "auto"])
@pytest.mark.parametrize("t", COLD_TS)
def test_cold_pressure_cli(tmp_path, capsys, route, t):
    cfg = {"shift": {"alphabet": [0, 1], "edges": [[0, 0], [0, 1], [1, 0]]},
           "potential": {"family": "locally_constant",
                         "table": {"0": -1.0, "1": 0.0}},
           "t": t, "route": route}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["pressure", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == "transfer"
    assert rel(doc["value"], golden_cold_pressure(t)) <= 1e-12


@pytest.mark.parametrize("t", [20.0, 30.0, 40.0])
def test_cold_rpf_entropy_matches_closed_form(t):
    h = rpf_equilibrium(GOLDEN, COLD, t).entropy()
    assert rel(h, _golden_cold_entropy(t)) <= 1e-6
    # past t = 17 the gap to the sub-shift entropy 0 follows its rate
    assert rel(h, (t / 4 + 0.5) * math.exp(-t / 2)) <= 1e-6


def test_cold_rpf_chain_is_stochastic_at_extreme_t():
    eq = rpf_equilibrium(GOLDEN, COLD, 1e4)
    assert np.allclose(eq.p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # the chain lives on the alternating orbit
    assert eq.mass((0, 1, 0, 1)) == pytest.approx(0.5, abs=1e-15)
    assert eq.entropy() == 0.0


# -- the scaled operator ------------------------------------------------------


def random_primitive(rng: random.Random, m: int) -> ShiftModel:
    adj = np.zeros((m, m), dtype=np.uint8)
    for i in range(m):
        adj[i, (i + 1) % m] = 1
        for j in range(m):
            if rng.random() < 0.2:
                adj[i, j] = 1
    adj[0, 0] = 1
    return ShiftModel(tuple(range(m)), adj)


@pytest.mark.parametrize("seed", range(30))
def test_howard_matches_karp_and_satisfies_bellman(seed):
    rng = random.Random(seed)
    shift = random_primitive(rng, rng.randint(2, 40))
    g = [rng.uniform(-3.0, 1.0) for _ in shift.symbols]
    _, B, _ = weighted_block_matrix(shift, LocallyConstant(dict(zip(shift.symbols, g))), 1.0)
    beta, x, *_ = _howard(B)
    assert beta == pytest.approx(karp_beta(shift, g), abs=1e-9)
    # Bellman: max_v (w_uv + x_v) = beta + x_u at every state
    val = B.log_weight + x[B.dst]
    best = np.full(len(B), -math.inf)
    np.maximum.at(best, B.src, val)
    assert np.abs(best - beta - x).max() <= 1e-9
    # equality on a critical cycle: follow tight edges until a state repeats
    tight = np.abs(val - beta - x[B.src]) <= 1e-9
    nxt = {}
    for e in np.flatnonzero(tight):
        nxt.setdefault(int(B.src[e]), int(B.dst[e]))
    seen, u = [], 0
    while u not in seen:
        seen.append(u)
        u = nxt[u]
    cycle = seen[seen.index(u):]
    assert math.fsum(g[v] for v in cycle) / len(cycle) == pytest.approx(beta, abs=1e-9)


@pytest.mark.parametrize("t", [1.0, 17.0, 800.0, 1e4])
def test_scaled_weights_lie_in_unit_interval(t):
    shift = RenewalRule().truncate(60)
    _, B, _ = weighted_block_matrix(shift, DecayPotential("log", 2.0), t)
    beta, S = B.bellman_scaled()[:2]
    assert np.isfinite(S.log_weight).all()
    assert S.log_weight.max() <= 1e-12 * t * 60
    # the critical cycle is the fixed point at symbol 1 (f = 0 there)
    assert beta == 0.0
    loop = (S.src == 0) & (S.dst == 0)
    assert S.weight[loop] == pytest.approx([1.0], abs=1e-15)


def test_power_iteration_survives_nearly_periodic_spectra():
    # lambda = (eps + sqrt(eps^2 + 4)) / 2; plain iteration needs ~1/eps steps
    eps = 1e-8
    lam, vec = power_iteration(dense_operator([[eps, 1.0], [1.0, 0.0]]), max_iter=100)
    assert lam == pytest.approx((eps + math.sqrt(eps * eps + 4)) / 2, rel=1e-13)
    assert vec == pytest.approx([lam / (lam + 1), 1 / (lam + 1)], rel=1e-12)


def test_period_is_decided_once_per_shift(monkeypatch):
    calls = []
    original = shifts._period

    def counting(adj):
        calls.append(1)
        return original(adj)

    monkeypatch.setattr(shifts, "_period", counting)
    shift = RenewalRule().truncate(40)
    pot = DecayPotential("log", 2.0)
    for t in (1.5, 2.0, 2.5):
        transfer_pressure(shift, pot, t)
        rpf_equilibrium(shift, pot, t)
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(mixing_graphs(), st.integers(1, 2), st.data())
def test_rpf_entropy_equals_the_double_loop(shift, depth, data):
    # a chain on the block graph's support with weights down to e^-700 and
    # some states without stationary mass
    states, B, f = weighted_block_matrix(shift, LocallyConstant.constant(shift, 0.0),
                                         1.0, depth)
    m = len(states)
    logs = data.draw(st.lists(st.floats(-700.0, 0.0), min_size=len(B.src),
                              max_size=len(B.src)))
    q = np.exp(logs)
    q /= np.bincount(B.src, q, minlength=m)[B.src]
    pi = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-300, 0.3, 1.0]) | st.floats(0.0, 1.0),
                                     min_size=m, max_size=m)))
    pi = pi / pi.sum() if pi.sum() > 0 else pi
    eq = RPFEquilibrium(shift, 1.0, depth, tuple(states), pi, 0.0, B.src, B.dst,
                        q, f)
    acc = []
    for i in range(len(eq.states)):
        if eq.pi[i] <= 0:
            continue
        for j in range(len(eq.states)):
            q = eq.p[i, j]
            if q > 0:
                acc.append(-eq.pi[i] * q * math.log(q))
    assert eq.entropy() == math.fsum(acc)


# -- periodic sums ------------------------------------------------------------


def brute_log_z(shift, pot, t, n, a):
    """log sum of exp(t f_n) over the period-n words through ``a``: every
    walk of length n from ``a`` along the successor lists, kept when it
    closes up."""
    succ = {s: shift.successors(s) for s in shift.symbols}
    vals = []

    def extend(word):
        if len(word) == n:
            if shift.is_edge(word[-1], a):
                vals.append(t * pot.at_periodic(word))
            return
        for b in succ[word[-1]]:
            extend(word + (b,))

    extend((a,))
    return log_sum_exp(vals)


def assert_matches_brute_force(shift, pot, t, n_max, a):
    """log Z_n to 1e-12 relative, or 1e-12 absolute (Z_n to 1e-12 relative)
    where log Z_n is near 0."""
    est = gurevich_estimate(shift, pot, t, n_max, a=a)
    assert [n for n, _ in est.sequence] == list(range(1, n_max + 1))
    for n, got in est.sequence:
        want = brute_log_z(shift, pot, t, n, a) / n
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(mixing_graphs(), st.integers(1, 2), st.data())
def test_additive_gurevich_matches_brute_force(shift, depth, data):
    words = list(itertools.product(shift.symbols, repeat=depth))
    table = {w: data.draw(st.floats(-2.0, 1.0)) for w in words}
    pot = LocallyConstant(table, depth=depth)
    t = data.draw(st.floats(0.5, 50.0))
    a = data.draw(st.sampled_from(shift.symbols))
    n_max = 6 if shift.n_symbols <= 3 else 5
    assert_matches_brute_force(shift, pot, t, n_max, a)


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 12), st.floats(1.2, 3.0), st.data())
def test_decay_gurevich_matches_brute_force(size, coef, data):
    shift = RenewalRule().truncate(size)
    t = data.draw(st.floats(1.0, 20.0))
    a = data.draw(st.sampled_from(shift.symbols[:3]))
    assert_matches_brute_force(shift, DecayPotential("log", coef), t, 6, a)
    assert_matches_brute_force(
        shift, AffinePotential(DecayPotential("linear", coef), -0.5, 0.25), t, 5, a)


def test_gurevich_golden_mean_exact_at_extreme_t():
    # closed walks 0 -> 0 of length n by their number of zeros, in integers
    t, n_max = 1e4, 21
    counts = {(0, 0): 1}        # (state, zeros so far) -> number of walks
    exact = []
    for _ in range(n_max):
        nxt = {}
        for (s, k), c in counts.items():
            for v in GOLDEN.successors(s):
                key = (v, k + (s == 0))
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
        exact.append(log_sum_exp([math.log(c) - t * k
                                  for (s, k), c in counts.items() if s == 0]))
    est = gurevich_estimate(GOLDEN, COLD, t, n_max, a=0)
    for n, got in est.sequence:
        assert math.isfinite(got)
        assert rel(got, exact[n - 1] / n) <= 1e-12
    assert est.n_used == 21 and math.isfinite(est.value)


@pytest.mark.parametrize("dim", [2, 3])
def test_cocycle_gurevich_matches_brute_force(dim):
    rng = random.Random(dim)
    mats = {s: [[rng.uniform(0.2, 2.0) for _ in range(dim)] for _ in range(dim)]
            for s in range(3)}
    pot = MatrixCocycle(mats)
    shift = ShiftModel.from_edges((0, 1, 2), [(0, 0), (0, 1), (1, 2), (2, 0),
                                              (2, 1), (1, 0)])
    for a in (0, 2):
        est = gurevich_estimate(shift, pot, 1.7, 8, a=a)
        for n, got in est.sequence:
            want = math.fsum(
                math.exp(1.7 * pot.at_periodic(w))
                for w in itertools.product(shift.symbols, repeat=n)
                if w[0] == a and shift.is_admissible(w) and shift.is_edge(w[-1], w[0]))
            if want == 0.0:
                assert got == -math.inf
            else:
                assert got == pytest.approx(math.log(want) / n, rel=1e-12)
