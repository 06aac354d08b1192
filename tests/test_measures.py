"""Cylinder measures, RPF equilibria and the certificate machinery."""

import math

import pytest

from thermoshift import (ConditionNotMet, CylinderMeasure, DecayPotential,
                         LocallyConstant, RenewalRule, ShiftModel,
                         ValidationError, admissible_words, entropy_estimate,
                         entropy_tail_bound, excess_mass, gibbs_certificate,
                         gibbs_construct, gibbs_weights, lyapunov,
                         marginal_bound_check, orbit_measure, rpf_equilibrium,
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


def test_orbit_measure_is_shift_invariant(golden_mean):
    mu = orbit_measure(golden_mean, (0, 0, 1), depth=3)
    assert mu.invariance_defect() == 0.0
    assert mu.mass((0, 0)) == pytest.approx(1 / 3)
    with pytest.raises(ValidationError):
        orbit_measure(golden_mean, (1, 1), depth=2)


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
    assert eq._level_masses(levels).tolist() == [eq.mass(w) for w in words]


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


def test_excess_mass_hand_measure():
    shift = RenewalRule().truncate(6)
    mu = CylinderMeasure.from_weights(shift, 2, {
        (1, 5): 0.25, (5, 4): 0.25, (2, 1): 0.25, (6, 5): 0.25})
    out = excess_mass(mu, (4, 4))
    assert out.per_position == (pytest.approx(0.5), pytest.approx(0.5))
    assert out.total == pytest.approx(1.0)
    assert out.positions_checked == 2
    tight = excess_mass(mu, (6, 6, 6))
    assert tight.total == 0.0
    assert tight.positions_checked == 2


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


def test_entropy_tail_bound_rejects_divergent_series():
    with pytest.raises(ConditionNotMet):
        entropy_tail_bound(DecayPotential("log", 0.4), 2.0, 2, 10, 0.0)
