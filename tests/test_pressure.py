"""Pressure routes against closed forms, independent numpy eigendata and
brute-force partition sums."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import measures, potentials, pressure, shifts
from thermoshift import (AffinePotential, BudgetExceeded, ConditionNotMet,
                         DecayPotential, LocallyConstant, MatrixCocycle,
                         RenewalRule, ShiftModel, ValidationError,
                         admissible_words, best_pressure, compact_approximation,
                         gurevich_estimate, log_sum_exp, power_iteration,
                         pressure_curve, topological_pressure, transfer_pressure,
                         truncation_curve, weighted_block_matrix)
from thermoshift.linalg import EdgeOperator, _exp, _log
from thermoshift.shifts import WORD_BUDGET, word_levels

PHI = (1 + math.sqrt(5)) / 2


def test_transfer_golden_mean_is_log_phi(golden_mean):
    pot = LocallyConstant({0: 0.0, 1: 0.0})
    est = transfer_pressure(golden_mean, pot, 1.0)
    assert est.value == pytest.approx(math.log(PHI), abs=1e-12)
    assert est.route == "transfer"


def test_transfer_matches_numpy_spectral_radius(golden_mean):
    pot = LocallyConstant({0: 0.2, 1: -0.9})
    t = 1.7
    # independent construction of the weighted matrix
    B = np.array([[math.exp(t * 0.2), math.exp(t * 0.2)],
                  [math.exp(t * -0.9), 0.0]])
    rho = max(abs(np.linalg.eigvals(B)))
    est = transfer_pressure(golden_mean, pot, t)
    assert est.value == pytest.approx(math.log(rho), abs=1e-11)


def test_transfer_block_depth_two_agrees(golden_mean):
    pot = LocallyConstant({0: 0.2, 1: -0.9})
    one = transfer_pressure(golden_mean, pot, 1.3)
    two = transfer_pressure(golden_mean, pot, 1.3, depth=2)
    assert two.value == pytest.approx(one.value, abs=1e-11)
    # a depth-2 potential read through depth-3 blocks
    d2 = LocallyConstant({(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}, depth=2)
    three = transfer_pressure(golden_mean, d2, 1.3, depth=3)
    assert three.n_used == 3
    assert three.value == pytest.approx(
        transfer_pressure(golden_mean, d2, 1.3).value, abs=1e-11)


def test_transfer_depth2_potential_against_numpy(golden_mean):
    pot = LocallyConstant({(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}, depth=2)
    est = transfer_pressure(golden_mean, pot, 1.0)
    # states 00, 01, 10 with a one-symbol slide; weight from the source state
    states = [(0, 0), (0, 1), (1, 0)]
    table = {(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}
    B = np.zeros((3, 3))
    for i, u in enumerate(states):
        for j, v in enumerate(states):
            if u[1] == v[0]:
                B[i, j] = math.exp(table[u])
    rho = max(abs(np.linalg.eigvals(B)))
    assert est.value == pytest.approx(math.log(rho), abs=1e-11)


def test_transfer_requires_primitive_block():
    two_cycle = ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])
    with pytest.raises(ConditionNotMet):
        transfer_pressure(two_cycle, LocallyConstant({0: 0.0, 1: 0.0}), 1.0)


def test_transfer_rejects_cocycles(full2):
    with pytest.raises(ValidationError):
        transfer_pressure(full2, MatrixCocycle({0: [[1, 1], [1, 1]],
                                                1: [[1, 1], [1, 1]]}), 1.0)


def brute_periodic_sum(shift, pot, t, n, a):
    total = []
    for w in itertools.product(shift.symbols, repeat=n):
        if w[0] != a:
            continue
        if not (shift.is_admissible(w) and shift.is_edge(w[-1], w[0])):
            continue
        total.append(math.exp(t * pot.at_periodic(w)))
    return math.fsum(total)


def test_gurevich_matches_brute_force(golden_mean, bernoulli):
    t = 2.0
    est = gurevich_estimate(golden_mean, bernoulli, t, 8, a=0)
    for n, val in est.sequence:
        z = brute_periodic_sum(golden_mean, bernoulli, t, n, 0)
        assert val == pytest.approx(math.log(z) / n, abs=1e-12)
    assert est.n_used == 8


def test_gurevich_approaches_transfer(golden_mean):
    pot = LocallyConstant({0: 0.0, 1: 0.0})
    est = gurevich_estimate(golden_mean, pot, 1.0, 18, a=0)
    assert est.value == pytest.approx(math.log(PHI), abs=2e-2)


def test_gurevich_skips_lengths_without_orbits():
    two_self = ShiftModel.from_edges((0, 1), [(0, 0), (0, 1), (1, 0)])
    est = gurevich_estimate(two_self, LocallyConstant({0: 0.0, 1: 0.0}),
                            1.0, 5, a=1)
    # no fixed point at 1, so the n=1 entry is -inf
    assert est.sequence[0][1] == -math.inf
    assert est.sequence[1][1] > -math.inf


def brute_partition(shift, pot, t, n):
    vals = []
    for w in itertools.product(shift.symbols, repeat=n):
        if shift.is_admissible(w):
            vals.append(t * pot.sup(w, shift))
    return log_sum_exp(vals)


def test_topological_matches_brute_force(golden_mean, bernoulli):
    est = topological_pressure(golden_mean, bernoulli, 1.5, 7)
    for n, val in est.sequence:
        assert val == pytest.approx(brute_partition(golden_mean, bernoulli, 1.5, n) / n,
                                    abs=1e-12)
    assert est.value == min(v for _, v in est.sequence)


def test_topological_upper_bounds_transfer(golden_mean, full2):
    for shift in (golden_mean, full2):
        for table in ({0: 0.0, 1: 0.0}, {0: 0.3, 1: -1.1}):
            pot = LocallyConstant(table)
            for t in (1.0, 2.0):
                top = topological_pressure(shift, pot, t, 10).value
                exact = transfer_pressure(shift, pot, t).value
                assert top >= exact - 1e-9


# -- the log-domain walk ---------------------------------------------------


def enumerated_topological(shift, pot, ts, n_max):
    """The covering terms (1/n) log Z_n for every t in ``ts``, from every
    admissible word up to n_max: the word-level scan the walk replaced."""
    levels = word_levels(shift, n_max)
    sups = [hi.tolist() for hi, _ in pot.level_extrema(shift, levels)]
    return {t: [log_sum_exp([t * v for v in hi]) / n
                for n, hi in enumerate(sups, start=1)] for t in ts}


def _random_shift(rng, k):
    """A strongly connected shift on k symbols: a k-cycle, a loop at 0 and
    random extra edges."""
    edges = {(i, (i + 1) % k) for i in range(k)} | {(0, 0)}
    edges |= {(i, j) for i in range(k) for j in range(k) if rng.random() < 0.4}
    return ShiftModel.from_edges(tuple(range(k)), sorted(edges))


def _walk_models():
    """(shift, potential, n_max) per case: seeded depth-1..3 tables, decay
    laws on a renewal truncation, and negatively scaled depth-2 tables."""
    rng = random.Random(19)
    models = []
    for depth in (1, 2, 3):
        for i in range(4):
            shift = _random_shift(rng, rng.randint(2, 4))
            table = {w: rng.uniform(-2.0, 1.0) for w in admissible_words(shift, depth)}
            models.append(pytest.param(shift, LocallyConstant(table, depth=depth), 8,
                                       id=f"lc-depth{depth}-{i}"))
    for law, coef in (("log", 1.5), ("linear", 0.4)):
        models.append(pytest.param(RenewalRule().truncate(12),
                                   DecayPotential(law, coef, 0.3), 9,
                                   id=f"decay-{law}-renewal12"))
    for mult in (-1.5, -0.5):
        shift = _random_shift(rng, 3)
        table = {w: rng.uniform(-1.0, 1.0) for w in admissible_words(shift, 2)}
        models.append(pytest.param(
            shift, AffinePotential(LocallyConstant(table, depth=2), mult,
                                   rng.uniform(-1.0, 1.0)), 8,
            id=f"affine-mult{mult}-depth2"))
    return models


WALK_TS = (-1.0, 0.5, 1.0, 3.0, 40.0)


@pytest.mark.parametrize("shift,pot,n_max", _walk_models())
def test_topological_walk_matches_the_word_enumeration(shift, pot, n_max):
    want = enumerated_topological(shift, pot, WALK_TS, n_max)
    for t in WALK_TS:
        est = topological_pressure(shift, pot, t, n_max)
        assert [n for n, _ in est.sequence] == list(range(1, n_max + 1))
        for (n, got), ref in zip(est.sequence, want[t]):
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0), (t, n)
        assert est.value == min(v for _, v in est.sequence)


def test_topological_walk_allocates_no_level_past_the_block(monkeypatch):
    lengths = []

    def spy(shift, n, *args, **kwargs):
        lengths.append(n)
        return word_levels(shift, n, *args, **kwargs)

    monkeypatch.setattr(pressure, "word_levels", spy)
    monkeypatch.setattr(potentials, "word_levels", spy)
    shift = ShiftModel.full(3)
    pot = LocallyConstant({w: -0.1 * sum(w)
                           for w in itertools.product(range(3), repeat=3)}, depth=3)
    topological_pressure(shift, pot, 1.5, 12)
    assert lengths and max(lengths) <= pot.depth + 1


def test_topological_walk_runs_past_the_enumeration_budget():
    # level 7 of the full 9-shift already holds 9^7 > WORD_BUDGET words
    shift = ShiftModel.full(9)
    rng = random.Random(7)
    pot = LocallyConstant({w: rng.uniform(-1.0, 0.0)
                           for w in itertools.product(range(9), repeat=2)}, depth=2)
    est = topological_pressure(shift, pot, 1.0, 40)
    exact = transfer_pressure(shift, pot, 1.0).value
    assert len(est.sequence) == 40
    assert all(v >= exact - 1e-12 for _, v in est.sequence)


def test_log_walk_is_budgeted_before_its_first_step():
    # 1000 states, each with a loop and an edge to the next: 2000 edges
    size = 1000
    src = np.repeat(np.arange(size), 2)
    dst = np.stack([np.arange(size), (np.arange(size) + 1) % size], axis=1).ravel()
    op = EdgeOperator(size, src, dst, np.zeros(2 * size))

    class Stepped(Exception):
        pass

    def read(h):
        raise Stepped

    start = np.zeros((size, 1))
    with pytest.raises(Stepped):        # 1000 x 2000 x 1 visits: at the budget
        op.log_walk(start, WORD_BUDGET // (2 * size), read)
    with pytest.raises(BudgetExceeded, match="exceeds budget"):
        op.log_walk(start, WORD_BUDGET // (2 * size) + 1, read)
    with pytest.raises(BudgetExceeded):
        op.log_walk(np.zeros((size, 2)), WORD_BUDGET // (4 * size) + 1, read)


def test_log_walk_reads_the_word_budget_at_call_time(monkeypatch):
    # 10 states with a loop and an edge to the next: 20 edge visits a step
    size = 10
    src = np.repeat(np.arange(size), 2)
    dst = np.stack([np.arange(size), (np.arange(size) + 1) % size], axis=1).ravel()
    op = EdgeOperator(size, src, dst, np.zeros(2 * size))
    start = np.zeros((size, 1))
    assert len(op.log_walk(start, 6, lambda h: 0.0)) == 6
    monkeypatch.setattr(shifts, "WORD_BUDGET", 100)
    assert len(op.log_walk(start, 5, lambda h: 0.0)) == 5      # 100 visits
    with pytest.raises(BudgetExceeded, match="exceeds budget 100 "):
        op.log_walk(start, 6, lambda h: 0.0)                    # 120 visits


@pytest.mark.parametrize("route", [gurevich_estimate, topological_pressure])
def test_word_routes_refuse_an_unbounded_walk(golden_mean, bernoulli, route):
    with pytest.raises(BudgetExceeded, match="log-domain walk"):
        route(golden_mean, bernoulli, 1.0, 10**9)


@pytest.mark.parametrize("route", [gurevich_estimate, topological_pressure])
def test_word_routes_take_only_positive_integer_lengths(golden_mean, bernoulli, route):
    coc = MatrixCocycle({0: [[2, 1], [1, 1]], 1: [[1, 1], [1, 3]]})
    for pot in (bernoulli, coc):
        for bad in (2.5, 2.0, True, "3", None, 0, np.int64(0)):
            with pytest.raises(ValidationError, match="n_max must be a positive integer"):
                route(golden_mean, pot, 1.0, bad)
        assert route(golden_mean, pot, 1.0, np.int64(3)).n_used == 3


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_word_routes_reject_a_non_finite_t_before_any_work(monkeypatch, golden_mean,
                                                           bernoulli, t):
    def no_work(*args, **kwargs):
        raise AssertionError("enumerated or built before validating t")

    monkeypatch.setattr(pressure, "word_levels", no_work)
    monkeypatch.setattr(pressure, "weighted_block_matrix", no_work)
    flip = ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])     # period 2
    coc = MatrixCocycle({0: [[2, 1], [1, 1]], 1: [[1, 1], [1, 3]]})
    for pot in (bernoulli, coc):
        with pytest.raises(ValidationError, match="t must be finite"):
            topological_pressure(golden_mean, pot, t, 6)
        with pytest.raises(ValidationError, match="t must be finite"):
            gurevich_estimate(golden_mean, pot, t, 6, a=0)
    with pytest.raises(ValidationError, match="t must be finite"):
        best_pressure(flip, bernoulli, t, n_max=6)


def test_best_pressure_route_selection(golden_mean, full2, bernoulli):
    assert best_pressure(golden_mean, LocallyConstant({0: 0.0, 1: 0.0}), 1.0).route \
        == "transfer"
    coc = MatrixCocycle({0: [[1, 1], [1, 1]], 1: [[1, 1], [1, 1]]})
    assert best_pressure(full2, coc, 1.0).route == "topological"
    # the transfer route serves t >= 0 only
    assert best_pressure(golden_mean, bernoulli, -1.0, n_max=6) \
        == topological_pressure(golden_mean, bernoulli, -1.0, 6)


def test_best_pressure_tests_primitivity_before_the_transfer_route(monkeypatch,
                                                                 golden_mean, bernoulli):
    attempts = []
    original = pressure.transfer_pressure

    def spy(*args, **kwargs):
        attempts.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pressure, "transfer_pressure", spy)
    flip = ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])     # period 2
    assert best_pressure(flip, bernoulli, 1.0, n_max=6) \
        == topological_pressure(flip, bernoulli, 1.0, 6)
    assert attempts == []
    assert best_pressure(golden_mean, bernoulli, 1.0).route == "transfer"
    assert len(attempts) == 1


ROUTE_SHIFTS = {
    "golden": ShiftModel.golden_mean(),
    "flip": ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)]),        # period 2
    "looped_3_cycle": ShiftModel.from_edges(
        (0, 1, 2), [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]),
}


def _route_potential(kind, shift):
    if kind == "table":
        return LocallyConstant({s: -0.5 * i for i, s in enumerate(shift.symbols)})
    return MatrixCocycle({s: [[1.0 + i, 1.0], [1.0, 2.0]]
                          for i, s in enumerate(shift.symbols)})


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.5])
@pytest.mark.parametrize("kind", ["table", "cocycle"])
@pytest.mark.parametrize("name", sorted(ROUTE_SHIFTS))
def test_route_choosers_agree(monkeypatch, name, kind, t):
    # best_pressure, pressure_curve and _spectral_block each decide whether
    # the transfer route applies; they must decide alike
    shift = ROUTE_SHIFTS[name]
    pot = _route_potential(kind, shift)
    try:
        transfer_pressure(shift, pot, t)
        applies = True
    except (ValidationError, ConditionNotMet):
        applies = False
    assert (best_pressure(shift, pot, t, n_max=6).route == "transfer") == applies
    if t < 0:
        return
    calls = []
    original = measures._equilibrium

    def spy(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(measures, "_equilibrium", spy)
    pressure_curve(shift, pot, [t, t + 1.0], n_max=6)
    assert calls == ([shift, shift] if applies else [])


def test_route_choosers_read_the_one_spectral_rule(monkeypatch, full2, bernoulli):
    # full2 with a table is on the spectral route; with the rule turned off
    # both choosers take the scan
    assert best_pressure(full2, bernoulli, 1.5).route == "transfer"
    calls = []
    monkeypatch.setattr(measures, "_equilibrium",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(pressure, "_spectral_applies", lambda shift, pot: False)
    assert best_pressure(full2, bernoulli, 1.5, n_max=6) == \
        topological_pressure(full2, bernoulli, 1.5, 6)
    curve = pressure_curve(full2, bernoulli, [1.0, 2.0], n_max=6)
    assert calls == []
    assert [p.pressure for p in curve.points] == \
        [topological_pressure(full2, bernoulli, t, 6).value for t in (1.0, 2.0)]


def test_weighted_block_matrix_shape(golden_mean, bernoulli):
    states, B, f = weighted_block_matrix(golden_mean, bernoulli, 1.0, depth=2)
    assert states == [(0, 0), (0, 1), (1, 0)]
    assert len(B) == 3
    # f_1 per state: the table value of its first symbol
    assert f.tolist() == [0.0, 0.0, -1.0]
    # the operator holds log weights on edges sorted by source
    assert list(B.src) == sorted(B.src)
    # weight on a row is constant: exp(t f_1 | source state)
    for i, u in enumerate(states):
        row = B.weight[B.src == i]
        assert row == pytest.approx([math.exp(f[i])] * len(row))
    assert B.weight[B.src == 0].max() == pytest.approx(1.0)
    # support: v follows u by a one-symbol slide, v == u[1:] + (s,)
    support = set(zip(B.src.tolist(), B.dst.tolist()))
    assert len(support) == len(B.src)
    for i, u in enumerate(states):
        for j, v in enumerate(states):
            assert ((i, j) in support) == (v == u[1:] + v[-1:])


# -- truncation curves -----------------------------------------------------


def test_truncation_curve_monotone_renewal():
    approx = compact_approximation(RenewalRule(), 3)
    pot = DecayPotential("log", 2.0)
    curve = truncation_curve(approx, pot, 2.0)
    assert curve.monotone
    assert curve.sizes == (3, 7, 15)
    assert all(g >= -1e-9 for g in curve.gaps)
    # large-truncation reference
    ref = transfer_pressure(RenewalRule().truncate(100), pot, 2.0).value
    assert curve.value == pytest.approx(ref, abs=1e-6)


def test_truncation_curve_rejects_small_t():
    approx = compact_approximation(RenewalRule(), 1)
    with pytest.raises(ValidationError, match="exceed 1"):
        truncation_curve(approx, DecayPotential("log", 2.0), 0.5)


def test_truncation_curve_requires_summability():
    approx = compact_approximation(RenewalRule(), 1)
    # t * coef = 0.9 <= 1: the ambient series diverges
    with pytest.raises(ConditionNotMet):
        truncation_curve(approx, DecayPotential("log", 0.6), 1.5)


def test_truncation_curve_requires_summability_through_an_affine_map():
    approx = compact_approximation(RenewalRule(), 3)
    # t * mult * coef is 1.5 * 1 * 0.5 = 0.75 and 1.5 * (-1) * 2 = -3, not
    # above 1, so both scaled series diverge; the shift term only rescales
    for pot in (AffinePotential(DecayPotential("log", 0.5), 1.0, 0.0),
                AffinePotential(DecayPotential("log", 2.0), -1.0, 0.3)):
        assert not pot.summable(1.5)
        with pytest.raises(ConditionNotMet):
            truncation_curve(approx, pot, 1.5)
    # 1.5 * 2 * 0.5 = 1.5
    pot = AffinePotential(DecayPotential("log", 0.5), 2.0, -0.1)
    assert pot.summable(1.5)
    assert truncation_curve(approx, pot, 1.5).monotone


# -- pressure curves -------------------------------------------------------


def test_pressure_curve_bernoulli_closed_forms(full2, bernoulli):
    ts = [1.0, 1.5, 2.0, 3.0, 5.0]
    curve = pressure_curve(full2, bernoulli, ts)
    for point in curve.points:
        t = point.t
        assert point.pressure == pytest.approx(math.log(1 + math.exp(-t)), abs=1e-12)
        lyap = -math.exp(-t) / (1 + math.exp(-t))
        assert point.lyapunov == pytest.approx(lyap, abs=1e-12)
        assert point.entropy == pytest.approx(point.pressure - t * point.lyapunov,
                                              abs=1e-12)
    assert curve.convex_ok


def test_block_enumeration_is_under_the_word_budget():
    shift = ShiftModel.full(9)
    pot = LocallyConstant({s: -0.1 * s for s in shift.symbols})
    # the 9^7 edges of the depth-6 block exceed the budget; levels 1..6
    # take ~25 MB
    with pytest.raises(BudgetExceeded, match="at length 7"):
        transfer_pressure(shift, pot, 1.0, depth=6)


def test_pressure_curve_grid_validation(full2, bernoulli):
    with pytest.raises(ValidationError):
        pressure_curve(full2, bernoulli, [])
    with pytest.raises(ValidationError):
        pressure_curve(full2, bernoulli, [2.0, 1.0])


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_pressure_curve_rejects_a_bad_step_before_solving(monkeypatch, full2,
                                                          bernoulli, h):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating h")

    monkeypatch.setattr(pressure, "best_pressure", no_solve)
    monkeypatch.setattr(pressure, "_spectral_block", no_solve)
    monkeypatch.setattr(measures, "_equilibrium", no_solve)
    with pytest.raises(ValidationError, match="h must be"):
        pressure_curve(full2, bernoulli, [1.0, 2.0], h=h)


@pytest.mark.parametrize("t", [math.inf, math.nan])
@pytest.mark.parametrize("shift", [ShiftModel.full(2),
                                   ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])])
def test_pressure_curve_rejects_a_non_finite_t_before_solving(monkeypatch, bernoulli,
                                                              shift, t):
    # full2 takes the spectral branch, the period-2 flip the central differences
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the grid")

    for name in ("best_pressure", "topological_pressure", "_block_operator"):
        monkeypatch.setattr(pressure, name, no_solve)
    monkeypatch.setattr(measures, "_equilibrium", no_solve)
    with pytest.raises(ValidationError, match="finite"):
        pressure_curve(shift, bernoulli, [1.0, t])


def test_pressure_curve_off_the_spectral_route_takes_central_differences(
        monkeypatch):
    flip = ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])     # period 2
    pot, h = LocallyConstant({0: 0.0, 1: -1.0}), 1e-2

    def no_choice(*args, **kwargs):
        raise AssertionError("the curve chose a route per point")

    # the scan is chosen once per curve, not by best_pressure per point
    monkeypatch.setattr(pressure, "best_pressure", no_choice)
    # at t < h the lower difference point t - h is negative
    for ts in ([1.0, 2.0], [0.0, 1.0], [0.005, 1.0]):
        curve = pressure_curve(flip, pot, ts, n_max=6, h=h)
        for point in curve.points:
            t = point.t
            assert point.pressure == topological_pressure(flip, pot, t, 6).value
            diff = (topological_pressure(flip, pot, t + h, 6).value
                    - topological_pressure(flip, pot, t - h, 6).value)
            assert point.lyapunov == diff / (2.0 * h)


def test_pressure_curve_on_the_renewal_is_the_first_return_derivative():
    # The first returns to 1 are the loops 1 -> n -> n-1 -> ... -> 2 -> 1 of
    # length n and sum S_n = f(1) + ... + f(n); with w_n = exp(t S_n - n P)
    # the pressure solves sum w_n = 1, so P'(t) = sum S_n w_n / sum n w_n.
    size, pot = 200, DecayPotential("log", 2.0)
    curve = pressure_curve(RenewalRule().truncate(size), pot, [1.2, 1.5, 2.0])
    sums = list(itertools.accumulate(pot.value(i) for i in range(1, size + 1)))
    for point in curve.points:
        w = [math.exp(point.t * s - n * point.pressure)
             for n, s in enumerate(sums, start=1)]
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
        want = (math.fsum(s * x for s, x in zip(sums, w))
                / math.fsum(n * x for n, x in enumerate(w, start=1)))
        assert point.lyapunov == pytest.approx(want, abs=1e-10)
        assert point.entropy == point.pressure - point.t * point.lyapunov


def test_long_renewal_truncation_solves_without_a_dense_matrix():
    # a 20 000-symbol truncation holds its 39 999 edges, not a 400 MB
    # matrix; its pressure solves sum_{n <= N} exp(t S_n - n P) = 1, the
    # first returns to 1 as above
    size, t, pot = 20_000, 1.5, DecayPotential("log", 2.0)
    tracemalloc.start()
    try:
        est = transfer_pressure(RenewalRule().truncate(size), pot, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    sums = list(itertools.accumulate(pot.value(i) for i in range(1, size + 1)))

    def excess(p):
        return math.fsum(math.exp(t * s - n * p)
                         for n, s in enumerate(sums, start=1)) - 1.0

    lo, hi = 0.0, 1.0           # excess falls with p, from > 0 to < 0
    assert excess(lo) > 0 > excess(hi)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    assert est.value == pytest.approx(lo, abs=1e-12)


# -- numerics --------------------------------------------------------------


def dense_operator(matrix) -> EdgeOperator:
    """The positive entries of a nonnegative matrix as an edge operator."""
    B = np.asarray(matrix, dtype=float)
    src, dst = np.nonzero(B > 0)       # row-major: sorted by source
    return EdgeOperator(len(B), src, dst, np.log(B[src, dst]))


def test_power_iteration_simple_oracle():
    lam, vec = power_iteration(dense_operator([[2.0, 1.0], [1.0, 2.0]]))
    assert lam == pytest.approx(3.0, abs=1e-11)
    assert vec == pytest.approx(np.array([0.5, 0.5]), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.1, 3.0), min_size=9, max_size=9))
def test_power_iteration_positive_matrices_match_numpy(entries):
    B = np.array(entries).reshape(3, 3)
    lam, _ = power_iteration(dense_operator(B))
    assert lam == pytest.approx(max(abs(np.linalg.eigvals(B))), rel=1e-9)


def test_log_sum_exp_edges():
    assert log_sum_exp([]) == -math.inf
    assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2))
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000 + math.log(2))


def reference_log_sum_exp(values):
    vals = [float(v) for v in values]
    if not vals:
        return -math.inf
    m = max(vals)
    if not math.isfinite(m):    # -inf, or an inf or nan term (inf - inf is nan)
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def _kernel_inputs():
    rng = random.Random(5)
    mixed = [rng.gauss(0.0, 30.0) for _ in range(200)] + [1000.0, -700.0, 745.0]
    singles = [[v] for v in (-0.0, 3.5, -1e308, math.inf, -math.inf, math.nan)]
    return [[], [-math.inf] * 3, [0.0], mixed, mixed + [-math.inf] * 5,
            [-math.inf, 3.5, -math.inf, -1e-300, 2.0], *singles]


@pytest.mark.parametrize("values", _kernel_inputs())
@pytest.mark.parametrize("form", [list, np.array, lambda v: (x for x in v)])
def test_log_domain_kernels_are_bit_identical_to_the_math_loop(values, form):
    want = reference_log_sum_exp(values)
    got = log_sum_exp(form(values))
    assert repr(got) == repr(want)      # the same float, signed zero and nan too
    small = [v for v in values if v < 700.0]        # math.exp overflows past 709.78
    assert _exp(form(small)).tolist() == [math.exp(v) for v in small]
    positive = [math.exp(v) for v in small if math.exp(v) > 0.0] + [math.inf]
    assert _log(form(positive)).tolist() == [math.log(v) for v in positive]


def test_log_kernel_raises_where_math_log_does():
    for bad in ([1.0, -math.inf], [2.0, 0.0]):
        with pytest.raises(ValueError):
            _log(np.array(bad))


def _loop_log_sum_exp(values):
    """log_sum_exp's max-shifted loop, on numpy's max."""
    x = np.array(values, dtype=float)
    m = float(x.max())
    if not math.isfinite(m):
        return m
    return m + math.log(math.fsum(map(math.exp, (x - m).tolist())))


def test_log_sum_exp_of_one_value_is_the_loop_float():
    rng = random.Random(21)
    singles = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               math.inf, -math.inf, math.nan, 1e308, -1e308]
    singles += [rng.gauss(0.0, 100.0) for _ in range(200)]
    for v in singles:
        want = repr(_loop_log_sum_exp([v]))
        assert repr(log_sum_exp([v])) == want, v
        assert repr(log_sum_exp(np.array([v]))) == want, v
    assert repr(log_sum_exp([-0.0])) == "0.0"
