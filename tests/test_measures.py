"""Cylinder measures, RPF equilibria and the certificate machinery."""

import math
import random
import time

import numpy as np
import pytest

from thermoshift import measures
from thermoshift import (BudgetExceeded, ConditionNotMet, CylinderMeasure,
                         DecayPotential,
                         LocallyConstant, NumericalError, RenewalRule,
                         ShiftModel, ValidationError, admissible_words, entropy_estimate,
                         entropy_tail_bound, gibbs_certificate,
                         gibbs_construct, gibbs_weights, lyapunov,
                         marginal_bound_check, rpf_equilibrium, shift_from_config,
                         tight_set, topological_pressure, transfer_pressure,
                         word_levels)

PHI = (1 + math.sqrt(5)) / 2


# -- CylinderMeasure basics ------------------------------------------------


def test_from_weights_normalizes_and_drops_zeros(full2):
    mu = CylinderMeasure.from_weights(full2, 2, {(0, 0): 3.0, (0, 1): 1.0,
                                                 (1, 0): 0.0})
    assert mu.mass((0, 0)) == pytest.approx(0.75)
    assert (1, 0) not in mu.weights
    assert mu.total() == pytest.approx(1.0)


def test_from_weights_validation(golden_mean):
    with pytest.raises(ValidationError):
        CylinderMeasure.from_weights(golden_mean, 2, {(1, 1): 1.0})
    with pytest.raises(ValidationError):
        CylinderMeasure.from_weights(golden_mean, 2, {(0, 1): -0.5})
    with pytest.raises(ValidationError):
        CylinderMeasure.from_weights(golden_mean, 2, {(0,): 1.0})
    with pytest.raises(ValidationError):
        CylinderMeasure.from_weights(golden_mean, 2, {})


def first_weight_fault(shift, depth, weights):
    """The message of the first fault of ``weights``, each key checked in
    order for length, admissibility and mass, then the total; or None."""
    for w, v in weights.items():
        if len(w) != depth:
            return f"weight key {w!r} has length != {depth}"
        if not shift.is_admissible(w):
            return f"weight on inadmissible word {w!r}"
        if float(v) < 0:
            return f"negative mass on {w!r}"
    return None if any(v > 0 for v in weights.values()) else "measure has no mass"


def test_from_weights_reports_the_first_fault_in_key_order(golden_mean):
    rng = random.Random(31)
    for _ in range(300):
        weights = {}
        while len(weights) < rng.randint(1, 6):
            word = tuple(rng.choice([0, 1, 1, 0, "z"])
                         for _ in range(rng.choice([3, 3, 3, 2])))
            weights[word] = rng.choice([1.0, 0.5, 0.0, 0.0, -1.0])
        fault = first_weight_fault(golden_mean, 3, weights)
        if fault is None:
            mu = CylinderMeasure.from_weights(golden_mean, 3, weights)
            assert mu.weights == {w: pytest.approx(v / sum(weights.values()))
                                  for w, v in weights.items() if v > 0}
        else:
            with pytest.raises(ValidationError) as err:
                CylinderMeasure.from_weights(golden_mean, 3, weights)
            assert str(err.value) == fault


def test_levels_sum_like_brute_force(golden_mean, bernoulli):
    mu = gibbs_weights(golden_mean, bernoulli, 1.0, 4)
    for k in (1, 2, 3):
        marg = mu.level(k)
        for w, v in marg.items():
            direct = math.fsum(val for word, val in mu.weights.items()
                               if word[:k] == w)
            assert v == pytest.approx(direct, abs=1e-15)
    assert mu.mass(()) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        mu.mass((0, 1, 0, 1, 0))


def test_gibbs_weights_uniform_when_flat(golden_mean, full2):
    zero = LocallyConstant({0: 0.0, 1: 0.0})
    mu = gibbs_weights(golden_mean, zero, 1.0, 8)
    assert len(mu.weights) == 55          # Fibonacci count of admissible words
    assert all(v == pytest.approx(1 / 55) for v in mu.weights.values())
    nu = gibbs_weights(full2, zero, 2.0, 3)
    assert all(v == pytest.approx(1 / 8) for v in nu.weights.values())


def bernoulli_mass(table, t, word):
    """Closed form of the sup-weight (and Cesaro) masses of a depth-1
    potential on a full shift: the Bernoulli product measure."""
    z = math.fsum(math.exp(t * (v - max(table.values()))) for v in table.values())
    return math.prod(math.exp(t * (table[s] - max(table.values()))) / z
                     for s in word)


@pytest.mark.parametrize("table", [{0: 100.0, 1: 100.5}, {0: -100.0, 1: -99.5}])
def test_sup_weights_neither_overflow_nor_underflow(full2, table):
    # exp(t * sup f_8) is about e^{+-800}: past the float range both ways
    pot = LocallyConstant(table)
    mu = gibbs_weights(full2, pot, 1.0, 8)
    assert len(mu.weights) == 2 ** 8
    for w, v in mu.weights.items():
        assert v == pytest.approx(bernoulli_mass(table, 1.0, w), rel=1e-12)
    nu = gibbs_construct(full2, pot, 1.0, 8, 2, 3)
    for w, v in nu.weights.items():
        assert v == pytest.approx(bernoulli_mass(table, 1.0, w), rel=1e-12)


def test_cesaro_averaging_improves_invariance(golden_mean, bernoulli):
    defects = {m: gibbs_construct(golden_mean, bernoulli, 1.0, 8, m, 4)
               .invariance_defect() for m in (1, 2, 4)}
    assert defects[1] == pytest.approx(0.038490457761826274, abs=1e-12)
    assert defects[2] == pytest.approx(0.014919817219838566, abs=1e-12)
    assert defects[4] == pytest.approx(0.007459908609919325, abs=1e-12)
    assert defects[4] < defects[2] < defects[1]


def test_gibbs_construct_window_guards(golden_mean, bernoulli):
    with pytest.raises(ValidationError):
        gibbs_construct(golden_mean, bernoulli, 1.0, 6, 6, 1)
    with pytest.raises(ValidationError):
        gibbs_construct(golden_mean, bernoulli, 1.0, 6, 2, 6)
    with pytest.raises(ValidationError):
        gibbs_construct(golden_mean, bernoulli, 1.0, 6, 0, 1)


# -- RPF equilibrium -------------------------------------------------------


def test_rpf_parry_closed_form(golden_mean):
    eq = rpf_equilibrium(golden_mean, LocallyConstant({0: 0.0, 1: 0.0}), 1.0,
                         depth=1)
    assert eq.pressure == pytest.approx(math.log(PHI), abs=1e-12)
    i0 = eq.states.index((0,))
    i1 = eq.states.index((1,))
    assert eq.pi[i0] == pytest.approx((5 + math.sqrt(5)) / 10, abs=1e-12)
    assert eq.p[i0, i0] == pytest.approx(1 / PHI, abs=1e-12)
    assert eq.p[i0, i1] == pytest.approx(1 / PHI ** 2, abs=1e-12)
    assert eq.p[i1, i0] == pytest.approx(1.0, abs=1e-12)
    assert eq.p[i1, i1] == 0.0
    # word mass is the stationary chain product
    assert eq.mass((0, 1, 0)) == pytest.approx(eq.pi[i0] / PHI ** 2, abs=1e-12)
    assert eq.entropy() == pytest.approx(math.log(PHI), abs=1e-12)


def test_rpf_pressure_identity(golden_mean, bernoulli):
    for t in (1.0, 2.0, 5.0):
        eq = rpf_equilibrium(golden_mean, bernoulli, t, depth=1)
        assert eq.entropy() + t * eq.lyapunov_exact() == pytest.approx(
            eq.pressure, abs=1e-10)


def test_rpf_bernoulli_closed_form(full2, bernoulli):
    t = 2.0
    eq = rpf_equilibrium(full2, bernoulli, t, depth=1)
    z = 1 + math.exp(-t)
    assert eq.pressure == pytest.approx(math.log(z), abs=1e-12)
    assert eq.lyapunov_exact() == pytest.approx(-math.exp(-t) / z, abs=1e-12)
    # product masses
    assert eq.mass((0, 1, 1)) == pytest.approx(math.exp(-2 * t) / z ** 3,
                                               abs=1e-14)


def test_rpf_mass_marginalizes(golden_mean, bernoulli):
    eq = rpf_equilibrium(golden_mean, bernoulli, 1.5, depth=1)
    for w in ((0,), (0, 1), (1, 0, 0)):
        total = math.fsum(eq.mass(w + (s,))
                          for s in golden_mean.successors(w[-1]))
        assert total == pytest.approx(eq.mass(w), abs=1e-15)


def test_rpf_depth_two_agrees_with_depth_one(golden_mean, bernoulli):
    a = rpf_equilibrium(golden_mean, bernoulli, 1.5, depth=1)
    b = rpf_equilibrium(golden_mean, bernoulli, 1.5, depth=2)
    for w in ((0, 0), (0, 1), (1, 0), (0, 1, 0)):
        assert b.mass(w) == pytest.approx(a.mass(w), abs=1e-12)
    assert b.entropy() == pytest.approx(a.entropy(), abs=1e-10)
    # a depth-2 potential read through depth-3 blocks
    d2 = LocallyConstant({(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}, depth=2)
    c = rpf_equilibrium(golden_mean, d2, 1.5)
    d = rpf_equilibrium(golden_mean, d2, 1.5, depth=3)
    for w in ((0, 0), (0, 1), (1, 0), (0, 1, 0)):
        assert d.mass(w) == pytest.approx(c.mass(w), abs=1e-12)
    assert d.pressure == pytest.approx(c.pressure, abs=1e-12)
    assert d.entropy() == pytest.approx(c.entropy(), abs=1e-10)
    assert d.lyapunov_exact() == pytest.approx(c.lyapunov_exact(), abs=1e-12)


def test_rpf_renewal_tiny_components_survive():
    shift = RenewalRule().truncate(200)
    eq = rpf_equilibrium(shift, DecayPotential("log", 2.0), 2.0, depth=1)
    row = eq.p[eq.states.index((1,))]
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    assert eq.entropy() + 2.0 * eq.lyapunov_exact() == pytest.approx(
        eq.pressure, abs=1e-9)


@pytest.mark.parametrize("shift, t", [(RenewalRule().truncate(60), 1.5),
                                      (ShiftModel.golden_mean(), 30.0)])
def test_rpf_entropy_reads_the_transition_arrays(shift, t):
    eq = rpf_equilibrium(shift, DecayPotential("log", 2.0)
                         if shift.ambient else LocallyConstant({0: -1, 1: 0}),
                         t)
    assert np.array_equal(eq.p[eq.src, eq.dst], eq.prob)
    assert np.count_nonzero(eq.p) == np.count_nonzero(eq.prob)
    i, j = np.nonzero(eq.p)
    live = eq.pi[i] > 0
    q = eq.p[i[live], j[live]]
    dense = math.fsum(-pi * x * math.log(x)
                      for pi, x in zip(eq.pi[i[live]].tolist(), q.tolist()))
    assert eq.entropy() == dense


@pytest.mark.parametrize("depth, n", [(1, 5), (2, 5), (3, 6), (3, 2)])
def test_spectral_cylinder_masses_are_the_per_word_masses(depth, n):
    shift = RenewalRule().truncate(7)
    table = {w: -0.3 * sum(w) + 0.1 * w[-1]
             for w in admissible_words(shift, depth)}
    eq = rpf_equilibrium(shift, LocallyConstant(table, depth), 1.7)
    mu = eq.as_cylinder_measure(n)
    words = admissible_words(shift, n)
    total = math.fsum(eq.mass(w) for w in words)
    assert sorted(mu.weights) == words
    for w in words:
        assert mu.weights[w] * total == pytest.approx(eq.mass(w), rel=1e-15)
    levels = word_levels(shift, n)
    assert eq.level_masses(levels)[-1].tolist() == [eq.mass(w) for w in words]


def test_spectral_cylinder_measure_is_under_the_word_budget():
    shift = ShiftModel.full(9)
    eq = rpf_equilibrium(shift, LocallyConstant({s: -0.1 * s for s in shift.symbols}),
                         1.0)
    # the 9^7 words of length 7 exceed the budget; levels 1..6 take ~25 MB
    with pytest.raises(BudgetExceeded, match="at length 7"):
        eq.as_cylinder_measure(8)


# -- entropy and Lyapunov estimators ---------------------------------------


def test_entropy_uniform_is_log_two(full2):
    eq = rpf_equilibrium(full2, LocallyConstant({0: 0.0, 1: 0.0}), 1.0, depth=1)
    est = entropy_estimate(full2, eq.as_cylinder_measure(6), 6)
    assert est.value == pytest.approx(math.log(2), abs=1e-15)
    assert est.ratio_value == pytest.approx(math.log(2), abs=1e-15)
    assert est.ratios_monotone


def test_entropy_difference_exact_for_markov(golden_mean):
    eq = rpf_equilibrium(golden_mean, LocallyConstant({0: 0.0, 1: 0.0}), 1.0,
                         depth=1)
    est = entropy_estimate(golden_mean, eq.as_cylinder_measure(7), 7)
    assert est.value == pytest.approx(eq.entropy(), abs=1e-12)
    # the plain ratio is still biased high at this depth
    assert est.ratio_value > est.value


def test_lyapunov_matches_exact_mean(full2, bernoulli):
    for t in (1.0, 3.0):
        eq = rpf_equilibrium(full2, bernoulli, t, depth=1)
        est = lyapunov(full2, bernoulli, eq.as_cylinder_measure(6), 6)
        assert est.value == pytest.approx(eq.lyapunov_exact(), abs=1e-12)
        for _, a_n in est.sequence:
            assert a_n == pytest.approx(eq.lyapunov_exact(), abs=1e-12)
        assert est.bias_bound == 0.0


# -- level_masses: the one read path of the estimators ---------------------


def random_case(seed):
    """A primitive shift on 2-4 symbols listed out of sorted order, a
    locally constant potential of depth 1 or 2 and a temperature."""
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    adj = np.array([[rng.random() < 0.4 for _ in range(k)] for _ in range(k)],
                   dtype=np.uint8)
    for i in range(k):
        adj[i, (i + 1) % k] = 1
    adj[0, 0] = 1
    shift = ShiftModel(("c", "a", "d", "b")[:k], adj)
    r = rng.randint(1, 2)
    pot = LocallyConstant({w: rng.uniform(-1.0, 0.0)
                           for w in admissible_words(shift, r)}, r)
    return rng, shift, pot, rng.uniform(0.5, 2.5)


def measure_sources(seed, depth=5):
    rng, shift, pot, t = random_case(seed)
    sup = gibbs_weights(shift, pot, t, depth)
    items = list(sup.weights.items())
    rng.shuffle(items)
    # the periodic orbit of the cycle through every symbol: its windows
    cycle = shift.symbols * depth
    orbit = {cycle[k:k + depth]: 1.0 for k in range(shift.n_symbols)}
    return shift, pot, t, {
        "from_weights": CylinderMeasure.from_weights(shift, depth, dict(items)),
        "orbit": CylinderMeasure.from_weights(shift, depth, orbit, "orbit"),
        "sup-weight": sup,
        "cesaro": gibbs_construct(shift, pot, t, depth + 2, 2, depth),
        # block depth 3: levels below it and from it on
        "spectral": rpf_equilibrium(shift, pot, t, depth=3),
        "spectral-cylinders": rpf_equilibrium(shift, pot, t)
        .as_cylinder_measure(depth),
    }


def per_word(measure, shift, n):
    """The per-word read the estimators made before ``level_masses``."""
    return [measure.mass(w) for w in admissible_words(shift, n)]


@pytest.mark.parametrize("seed", range(6))
def test_level_masses_are_the_per_word_masses(seed):
    shift, _, _, sources = measure_sources(seed)
    levels = word_levels(shift, 5)
    for name, mu in sources.items():
        got = mu.level_masses(levels)
        assert len(got) == 5, name
        for n, masses in enumerate(got, start=1):
            assert masses.tolist() == per_word(mu, shift, n), (name, n)
        # a scan shallower than the measure
        assert [m.tolist() for m in mu.level_masses(levels[:2])] == \
            [m.tolist() for m in got[:2]], name


@pytest.mark.parametrize("seed", range(12))
def test_rpf_edges_are_the_rows_of_the_next_level(seed):
    """Edge e of the chain is row e of level depth + 1: its parent is the
    source state and the row of its suffix the target, so the keys
    src * m + dst strictly increase and ``mass`` can search them as is."""
    _, shift, pot, t = random_case(seed)
    r = max(pot.depth, 1 + seed % 3)
    eq = rpf_equilibrium(shift, pot, t, depth=r)
    levels = word_levels(shift, r + 1)
    assert np.array_equal(eq.src, levels[r].parent)
    assert np.array_equal(eq.dst, levels[r].suffix)
    assert np.all(np.diff(eq.src * len(eq.states) + eq.dst) > 0)


def test_from_weights_keeps_insertion_order_and_depth(golden_mean):
    items = [((1, 0, 1), 2.0), ((0, 0, 0), 0.0), ((0, 1, 0), 1.0),
             ((0, 0, 1), 1.0)]
    mu = CylinderMeasure.from_weights(golden_mean, 3, dict(items))
    assert list(mu.weights) == [(1, 0, 1), (0, 1, 0), (0, 0, 1)]
    assert mu.weights == {(1, 0, 1): 0.5, (0, 1, 0): 0.25, (0, 0, 1): 0.25}
    assert mu.rows.tolist() == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValidationError):
        mu.level_masses(word_levels(golden_mean, 4))


def reference_estimates(shift, pot, t, measure, n_max, pressure):
    """entropy_estimate, lyapunov and gibbs_certificate restated on per-word
    masses, with math.log/math.exp per value as the package computes them."""
    H, a, c_lo, c_hi, worst = [], [], math.inf, 0.0, ()
    levels = word_levels(shift, n_max)
    for n, (hi, _) in enumerate(pot.level_extrema(shift, levels), start=1):
        words = admissible_words(shift, n)
        mu = per_word(measure, shift, n)
        h_n = math.fsum(-v * math.log(v) for v in mu if v > 0)
        H.append((n, h_n, h_n / n))
        a.append((n, math.fsum(v * (x + pot.aa_const)
                               for v, x in zip(mu, hi.tolist()) if v > 0) / n))
        for w, v, x in zip(words, mu, hi.tolist()):
            if v > 0:
                ratio = v * math.exp(n * pressure - t * x)
                if ratio > c_hi:
                    c_hi, worst = ratio, w
                c_lo = min(c_lo, ratio)
    return tuple(H), tuple(a), c_lo, c_hi, worst


@pytest.mark.parametrize("seed", range(6, 12))
def test_estimators_equal_the_per_word_reference(seed):
    shift, pot, t, sources = measure_sources(seed)
    pressure = topological_pressure(shift, pot, t, 5).value
    for name, mu in sources.items():
        H, a, c_lo, c_hi, worst = reference_estimates(shift, pot, t, mu, 5,
                                                      pressure)
        est = entropy_estimate(shift, mu, 5)
        assert est.sequence == H, name
        assert est.value == H[-1][1] - H[-2][1]
        assert lyapunov(shift, pot, mu, 5).sequence == a, name
        cert = gibbs_certificate(shift, pot, t, mu, pressure, range(1, 6))
        assert (cert.c_lower, cert.c_upper, cert.worst_word) == \
            (c_lo, c_hi, worst), name


def test_estimators_reject_a_measure_of_another_shift(golden_mean,
                                                      bernoulli):
    full3 = ShiftModel.full(3)
    flat = LocallyConstant.constant(full3, 0.0)
    for mu in (gibbs_construct(full3, flat, 1.0, 6, 2, 4),
               rpf_equilibrium(full3, flat, 1.0)):
        with pytest.raises(ValidationError, match="different shift"):
            entropy_estimate(golden_mean, mu, 2)
        with pytest.raises(ValidationError, match="different shift"):
            lyapunov(golden_mean, bernoulli, mu, 2)
        with pytest.raises(ValidationError, match="different shift"):
            gibbs_certificate(golden_mean, bernoulli, 1.0, mu, 0.0, [1, 2])
        # an equal shift built separately is the same shift
        assert entropy_estimate(ShiftModel.full(3), mu, 2).value == \
            entropy_estimate(full3, mu, 2).value
    same_symbols = ShiftModel((0, 1, 2), np.eye(3, dtype=np.uint8)[[1, 2, 0]])
    mu = gibbs_weights(same_symbols, flat, 1.0, 3)
    with pytest.raises(ValidationError, match="different shift"):
        entropy_estimate(full3, mu, 2)


def test_estimators_reject_depth_overrun_before_enumerating(monkeypatch,
                                                            golden_mean,
                                                            bernoulli):
    mu = gibbs_construct(golden_mean, bernoulli, 1.0, 8, 2, 4)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("words enumerated before the depth check")

    monkeypatch.setattr(measures, "word_levels", no_enumeration)
    with pytest.raises(ValidationError, match="not determined at depth 4"):
        entropy_estimate(golden_mean, mu, 5)
    with pytest.raises(ValidationError, match="not determined at depth 4"):
        lyapunov(golden_mean, bernoulli, mu, 5)
    with pytest.raises(ValidationError, match="not determined at depth 4"):
        gibbs_certificate(golden_mean, bernoulli, 1.0, mu, 0.0, [2, 5, 1])
    with pytest.raises(ValidationError, match="empty range"):
        gibbs_certificate(golden_mean, bernoulli, 1.0, mu, 0.0, range(1, 1))


@pytest.mark.parametrize("bad", [2.5, True, 0])
def test_estimators_name_the_length_they_reject(golden_mean, bernoulli, bad):
    mu = gibbs_construct(golden_mean, bernoulli, 1.0, 8, 2, 4)
    with pytest.raises(ValidationError, match="^n_max must be a positive"):
        entropy_estimate(golden_mean, mu, bad)
    with pytest.raises(ValidationError, match="^n_max must be a positive"):
        lyapunov(golden_mean, bernoulli, mu, bad)
    with pytest.raises(ValidationError,
                       match="^word length must be a positive"):
        gibbs_certificate(golden_mean, bernoulli, 1.0, mu, 0.0, [1, bad])


def test_estimators_take_numpy_lengths(golden_mean, bernoulli):
    mu = gibbs_construct(golden_mean, bernoulli, 1.0, 8, 2, 4)
    n = np.int64(3)
    assert entropy_estimate(golden_mean, mu, n) == entropy_estimate(
        golden_mean, mu, 3)
    assert lyapunov(golden_mean, bernoulli, mu, n) == lyapunov(
        golden_mean, bernoulli, mu, 3)
    assert gibbs_certificate(golden_mean, bernoulli, 1.0, mu, 0.0, [1, n]) \
        == gibbs_certificate(golden_mean, bernoulli, 1.0, mu, 0.0, [1, 3])


# -- Gibbs certificate -----------------------------------------------------


def test_certificate_tight_for_product_equilibrium(full2, bernoulli):
    t = 2.0
    eq = rpf_equilibrium(full2, bernoulli, t, depth=1)
    cert = gibbs_certificate(full2, bernoulli, t, eq.as_cylinder_measure(6),
                             eq.pressure, range(1, 7))
    assert cert.passed
    assert cert.c_upper == pytest.approx(1.0, abs=1e-12)
    assert cert.c_lower == pytest.approx(1.0, abs=1e-12)
    assert cert.bound == pytest.approx(1.0 + 1e-9)
    # a one-shot iterator is read once, and the range it gave is reported
    again = gibbs_certificate(full2, bernoulli, t, eq.as_cylinder_measure(6),
                              eq.pressure, (n for n in range(1, 7)))
    assert again == cert and again.n_range == (1, 2, 3, 4, 5, 6)


def test_certificate_rejects_wrong_pressure(full2, bernoulli):
    t = 2.0
    eq = rpf_equilibrium(full2, bernoulli, t, depth=1)
    cert = gibbs_certificate(full2, bernoulli, t, eq.as_cylinder_measure(6),
                             eq.pressure + 0.01, range(1, 7))
    assert not cert.passed
    assert cert.c_upper > cert.bound


def test_certificate_sup_weight_respects_topological_bound(golden_mean,
                                                           bernoulli):
    # at its own construction depth the sup-weight measure satisfies the
    # tight bound, because exp(n P_top) never exceeds the partition sum
    t = 1.0
    p_top = topological_pressure(golden_mean, bernoulli, t, 6).value
    for n in (2, 4, 6):
        mu = gibbs_weights(golden_mean, bernoulli, t, n)
        cert = gibbs_certificate(golden_mean, bernoulli, t, mu, p_top, [n])
        assert cert.passed
        assert cert.c_upper <= math.exp(t * bernoulli.bv_const) * (1 + 1e-9)


# -- tightness and countable-alphabet tails --------------------------------


def test_tight_set_cutoffs_frozen():
    pot = DecayPotential("log", 2.0)
    ts = tight_set(pot, 1.0, 0.1, 4, -math.log(2))
    assert ts.cutoffs == (80, 160, 320, 640)
    assert ts.targets == (0.025, 0.0125, 0.00625, 0.003125)
    scale = math.exp(ts.s_lower - 1.0 * pot.bv_const)
    for tail, target in zip(ts.numeric_tails, ts.targets):
        assert tail < target * scale
    assert ts.numeric_tails[0] == pytest.approx(0.0124222, abs=1e-6)


def test_tight_set_requires_summability():
    with pytest.raises(ConditionNotMet):
        tight_set(DecayPotential("log", 0.9), 1.0, 0.1, 2, 0.0)
    with pytest.raises(ValidationError):
        tight_set(DecayPotential("log", 2.0), 1.0, 1.5, 2, 0.0)


def test_marginal_bound_check_equality_and_violation():
    shift = RenewalRule().truncate(3)
    pot = DecayPotential("log", 2.0)
    t = 2.0
    s = 0.0
    bound = {i: math.exp(t * pot.value(i) - s) for i in shift.symbols}
    # masses exactly at the bound (then normalized down): all rows pass
    mu = CylinderMeasure.from_weights(shift, 1, {(i,): bound[i]
                                                 for i in shift.symbols})
    chk = marginal_bound_check(pot, t, mu, s)
    assert chk.all_ok
    # pile the mass on symbol 3, whose bound is 3^-4 << 1
    bad = CylinderMeasure.from_weights(shift, 1, {(3,): 1.0, (1,): 0.001})
    chk2 = marginal_bound_check(pot, t, bad, s)
    assert not chk2.all_ok
    assert chk2.worst_ratio > 1.0
    rows = {r.symbol: r for r in chk2.rows}
    assert not rows[3].ok
    assert rows[1].ok


def test_marginals_on_an_alphabet_of_integers_and_strings():
    # symbols sort by type name, then value: integers before strings, and
    # each type in its own order, as on alphabets of one type
    shift = shift_from_config({"alphabet": [0, "a", "b", 1], "edges": "full"})
    weights = {(a, b): 1.0 + i for i, (a, b) in enumerate(
        (a, b) for a in shift.symbols for b in shift.symbols)}
    mu = CylinderMeasure.from_weights(shift, 2, weights)
    assert list(mu.marginal_vector(1)) == [0, 1, "a", "b"]
    assert list(mu.marginal_vector(2))[:5] == [(0, 0), (0, 1), (0, "a"),
                                               (0, "b"), (1, 0)]
    pot = LocallyConstant({0: -0.5, "a": 0.0, "b": -1.0, 1: -2.0})
    chk = marginal_bound_check(pot, 1.0, mu, 0.0)
    assert [r.symbol for r in chk.rows] == [0, 1, "a", "b"]
    assert [r.mass for r in chk.rows] == list(mu.marginal_vector(1).values())


def test_marginal_bound_vacuous_rows_pass():
    shift = RenewalRule().truncate(2)
    pot = DecayPotential("log", 2.0)
    mu = CylinderMeasure.from_weights(shift, 1, {(1,): 1.0})
    # s_lower so negative every bound exceeds 1
    chk = marginal_bound_check(pot, 1.0, mu, -50.0)
    assert chk.all_ok
    assert all(r.bound >= 1.0 for r in chk.rows)


def test_entropy_tail_bound_against_direct_sum():
    pot = DecayPotential("log", 2.0)
    t = 2.0
    # with P = log sum i^-4 the bounding masses are the exact n=1 Gibbs masses
    P = math.log(math.fsum(i ** -4.0 for i in range(1, 200001)))
    out = entropy_tail_bound(pot, t, 1, 10, P)
    direct = math.fsum(-q * math.log(q) for q in
                       (math.exp(t * pot.value(i) - P)
                        for i in range(11, 200001)))
    assert out.applicable
    assert out.value >= direct - 1e-15
    assert out.value == pytest.approx(direct, rel=1e-3)


def test_entropy_tail_bound_names_workable_cutoff():
    # negative pressure inflates the constant enough that cutoff 1 leaves
    # bounding masses above 1/e
    pot = DecayPotential("log", 2.0)
    with pytest.raises(ConditionNotMet, match="smallest workable cutoff"):
        entropy_tail_bound(pot, 2.0, 3, 1, -1.0)
    try:
        entropy_tail_bound(pot, 2.0, 3, 1, -1.0)
    except ConditionNotMet as err:
        needed = int(str(err).rsplit(" ", 1)[-1])
    assert needed == 2
    assert entropy_tail_bound(pot, 2.0, 3, needed, -1.0).applicable


def test_entropy_tail_bound_bisects_for_the_workable_cutoff():
    # the workable cutoff grows like exp(-2P/3) here: a one-symbol-at-a-time
    # scan took over a second for P = -2 and did not end for n = 20
    pot = DecayPotential("log", 1.5)
    for pressure, needed in ((-0.5, 54), (-1.0, 1530), (-2.0, 1202604)):
        with pytest.raises(ConditionNotMet,
                           match=f"smallest workable cutoff is {needed}$"):
            entropy_tail_bound(pot, 1.0, 10, 1, pressure)
    with pytest.raises(ConditionNotMet, match="workable cutoff is 54$"):
        entropy_tail_bound(pot, 1.0, 10, 53, -0.5)
    assert entropy_tail_bound(pot, 1.0, 10, 54, -0.5).applicable
    start = time.perf_counter()
    with pytest.raises(NumericalError,
                       match="no workable cutoff below the search cap"):
        entropy_tail_bound(pot, 1.0, 20, 1, -2.0)
    assert time.perf_counter() - start < 0.1


def test_entropy_tail_bound_handles_an_unrepresentable_constant():
    # n |P| = 2000: C = exp(2000) and more is past the float range, so the
    # edge test and the cutoff search run on log C
    with pytest.raises(NumericalError,
                       match="no workable cutoff below the search cap"):
        entropy_tail_bound(DecayPotential("log", 1.5), 1.0, 1000, 1, -2.0)
    # log C = 2000 - 999 = 1001, and 1001 - k < -1 first at k = 1003
    linear = DecayPotential("linear", 1.0)
    with pytest.raises(ConditionNotMet,
                       match="smallest workable cutoff is 1002$"):
        entropy_tail_bound(linear, 1.0, 1000, 1, -2.0)
    with pytest.raises(NumericalError, match=r"C = exp\(1001.0\) overflows"):
        entropy_tail_bound(linear, 1.0, 1000, 1002, -2.0)


def _float_edge_tail_bound(pot, t, n, cutoff, pressure, terms=20000):
    """The parent implementation of entropy_tail_bound: a float edge test
    C exp(t f_1) >= 1/e, and the log test only where C overflows."""
    if not pot.summable(t):
        raise ConditionNotMet("the t-scaled series diverges at this t")
    log_c = (t * pot.bv_const + n * t * pot.aa_const
             + t * (n - 1) * pot.sup_f1 - n * pressure)
    try:
        C = math.exp(log_c)
        edge, limit = (lambda k: C * math.exp(t * pot.value(k))), 1.0 / math.e
    except OverflowError:
        C = None
        edge, limit = (lambda k: log_c + t * pot.value(k)), -1.0
    if edge(cutoff + 1) >= limit:
        try:
            needed = cutoff + measures._smallest_n(
                lambda k: edge(cutoff + k + 1),
                math.nextafter(limit, -math.inf), cap=10 ** 9 - cutoff)
        except NumericalError:
            raise NumericalError("no workable cutoff below the search cap") from None
        raise ConditionNotMet(
            f"cutoff {cutoff} too small for the -x log x regime; "
            f"smallest workable cutoff is {needed}")
    if C is None:
        raise NumericalError(
            f"the cylinder-mass constant C = exp({log_c!r}) overflows a float")
    W = pot.tail_weight_numeric(cutoff, t, terms=terms)
    G = pot.weighted_log_tail(cutoff, t, terms=terms)
    value = n * C * ((-math.log(C)) * W + G)
    return measures.EntropyTailBound(value, C, cutoff, n, True)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ConditionNotMet, NumericalError, ValueError) as err:
        return type(err), str(err)
    return tuple(map(repr, (out.value, out.constant, out.cutoff, out.n,
                            out.applicable)))


def test_entropy_tail_bound_matches_the_float_edge_test():
    # one edge test on log C gives the outcome of the float test it replaced,
    # except where C = exp(log C) underflows to 0: the reference fails on
    # log(0.0) there, and the bound is 0.0
    rng = random.Random(20)
    raised = passed = underflowed = 0
    for _ in range(300):
        pot = DecayPotential(rng.choice(["log", "linear"]), rng.uniform(0.3, 3.0),
                             rng.uniform(-2.0, 2.0))
        t = rng.uniform(0.5, 3.0)
        n = rng.choice([rng.randint(1, 30), rng.randint(300, 1000)])
        args = (pot, t, n, rng.randint(1, 2000), rng.uniform(-3.0, 3.0), 200)
        want = _outcome(_float_edge_tail_bound, *args)
        if want[0] is ValueError:
            out = entropy_tail_bound(*args)
            assert out.value == 0.0 and out.constant == 0.0
            underflowed += 1
            continue
        assert _outcome(entropy_tail_bound, *args) == want
        raised += isinstance(want[0], type)
        passed += not isinstance(want[0], type)
    assert raised > 50 and passed > 50 and underflowed > 20


def test_entropy_tail_bound_is_zero_where_the_constant_underflows():
    # log C = 2 * 0 + 0 + 2 * 999 * 0 - 1000 * 2 = -2000: C is 0.0 in floats
    out = entropy_tail_bound(DecayPotential("log", 1.5), 2.0, 1000, 1, 2.0)
    assert (out.value, out.constant, out.applicable) == (0.0, 0.0, True)


def test_entropy_tail_bound_rejects_divergent_series():
    with pytest.raises(ConditionNotMet):
        entropy_tail_bound(DecayPotential("log", 0.4), 2.0, 2, 10, 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_invariance_defect_by_pointer_equals_the_keyed_form(seed):
    # a Cesaro measure holds engine rows, keyed by their parent and suffix
    # rows; keyed by value instead, the defect is the same float
    _, shift, pot, t = random_case(seed)
    n = 5
    m = 1 + seed % 3
    mu = gibbs_construct(shift, pot, t, n, m, n - m + 1)
    assert mu._engine is not None
    keys, inverse = np.unique(np.concatenate([mu.rows[:, :-1], mu.rows[:, 1:]]),
                              axis=0, return_inverse=True)
    inverse = inverse.ravel()
    k = len(mu.masses)
    short = np.bincount(inverse[:k], mu.masses, minlength=len(keys))
    pre = np.bincount(inverse[k:], mu.masses, minlength=len(keys))
    assert mu.invariance_defect() == float(np.abs(pre - short).max())


FULL3_TABLE = LocallyConstant({(a, b): 0.3 * a - 0.2 * a * b + 0.1 * b
                               for a in range(3) for b in range(3)}, depth=2)


@pytest.mark.parametrize("shift, pot, n, size", [
    pytest.param(ShiftModel.full(3), FULL3_TABLE, 6, 3 ** 6, id="6"),
    pytest.param(ShiftModel.full(3), FULL3_TABLE, 8, 3 ** 8, id="8"),
    # a depth-8 Cesaro measure on 40 symbols
    pytest.param(RenewalRule().truncate(40), DecayPotential("log", 2.0), 8, 4993,
                 id="renewal40-8"),
])
def test_invariance_defect_keyed_by_value_equals_the_engine_form(shift, pot, n, size):
    # the same rows and masses in a measure built by hand, which holds no
    # engine rows, take the keyed branch and give the same float
    mu = gibbs_construct(shift, pot, 1.0, n + 1, 2, n)
    bare = CylinderMeasure(shift, mu.depth, mu.rows, mu.masses, mu.source)
    assert len(mu.masses) == size
    assert mu._engine is not None and bare._engine is None
    assert bare.invariance_defect() == mu.invariance_defect() > 0
