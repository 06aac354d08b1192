"""Acceptance gate: one check per numbered criterion, each printing a single
PASS/FAIL line (run with ``pytest -s`` to see them all).

Criterion 7(b) checks the cold-end entropy of the constrained golden-mean
example, f = {0: -1, 1: 0}, against its closed form.  The pressure solves
lambda^2 = e^(-t) (lambda + 1), so the entropy h(t) is exact at every t and
tends to the sub-shift entropy 0 at the rate (t/4 + 1/2) e^(-t/2).  The
sub-check asserts agreement with h(t) on the whole schedule, a strictly
monotone approach, and that rate at t = 12.  An earlier gate, h(12) < 1e-3,
was dropped: the exact value is h(12) = 8.7e-3, and h first falls below 1e-3
near t = 17, so no correct program could meet it.
"""

import math
import random

import pytest

from thermoshift import (DecayPotential, LocallyConstant, MatrixCocycle,
                         RenewalRule, ShiftModel, compact_approximation,
                         constants_report, gibbs_certificate, gibbs_weights,
                         gurevich_estimate, marginal_bound_check,
                         maximizing_subshift, rpf_equilibrium,
                         tight_set, topological_pressure, transfer_pressure,
                         truncation_curve, zero_temp_report)

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = ShiftModel.golden_mean()
FULL2 = ShiftModel.full(2)
BERN = LocallyConstant({0: 0.0, 1: -1.0})
DECAY = DecayPotential("log", 2.0)


def report(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def renewal200():
    shift = RenewalRule().truncate(200)
    exact = transfer_pressure(shift, DECAY, 2.0)
    eq = rpf_equilibrium(shift, DECAY, 2.0, depth=1)
    return shift, exact, eq


def test_criterion_1_three_pressure_routes_on_the_golden_mean():
    zero = LocallyConstant({0: 0.0, 1: 0.0})
    target = math.log(PHI)
    spectral = transfer_pressure(GOLDEN, zero, 1.0).value
    periodic = gurevich_estimate(GOLDEN, zero, 1.0, 18, a=0).value
    covering = topological_pressure(GOLDEN, zero, 1.0, 12).value
    ok = (abs(spectral - target) <= 1e-6
          and abs(periodic - target) <= 2e-2
          and abs(covering - target) <= 2e-2
          and covering >= spectral - 1e-9)
    report(1, "spectral / periodic-orbit / covering pressures at log phi", ok)
    assert abs(spectral - target) <= 1e-6
    assert abs(periodic - target) <= 2e-2
    assert abs(covering - target) <= 2e-2
    assert covering >= spectral - 1e-9


def test_criterion_2_bernoulli_closed_forms_and_derivative():
    checks = []
    h = 1e-3
    for t in (1.0, 2.0, 5.0):
        z = 1.0 + math.exp(-t)
        eq = rpf_equilibrium(FULL2, BERN, t, depth=1)
        P = transfer_pressure(FULL2, BERN, t).value
        L = eq.lyapunov_exact()
        H = eq.entropy()
        slope = (transfer_pressure(FULL2, BERN, t + h).value
                 - transfer_pressure(FULL2, BERN, t - h).value) / (2 * h)
        checks.append(abs(P - math.log(z)) <= 1e-6)
        checks.append(abs(L - (-math.exp(-t) / z)) <= 1e-6)
        checks.append(abs(H - (P - t * L)) <= 1e-6)
        checks.append(abs(slope - L) <= 1e-4)
    ok = all(checks)
    report(2, "independent-site closed forms P, L, H and dP/dt = L", ok)
    assert ok, checks


def test_criterion_3_truncation_monotone_and_convergent(renewal200):
    _, exact, _ = renewal200
    approx = compact_approximation(RenewalRule(), 4)
    curve = truncation_curve(approx, DECAY, 2.0)
    mono = all(g >= -1e-9 for g in curve.gaps)
    close = abs(curve.value - exact.value) <= 1e-3
    ok = mono and close
    report(3, "nested-truncation pressures rise to the large-graph value", ok)
    assert mono, curve.gaps
    assert close, (curve.value, exact.value)


def test_criterion_4_gibbs_bounds():
    # (a) the sup-weight masses obey the covering-pressure bound at every
    # depth up to 8, with only a float-association guard
    part_a = True
    for shift in (GOLDEN, FULL2):
        for table in ({0: 0.0, 1: 0.0}, {0: 0.0, 1: -1.0}):
            pot = LocallyConstant(table)
            for t in (1.0, 2.0):
                p_top = topological_pressure(shift, pot, t, 8).value
                for n in range(1, 9):
                    nu = gibbs_weights(shift, pot, t, n)
                    for w, mass in nu.weights.items():
                        lhs = math.log(mass)
                        rhs = (t * pot.bv_const + t * pot.sup(w, shift)
                               - n * p_top)
                        if lhs > rhs + 1e-12:
                            part_a = False
    # (b) the spectral equilibrium certificate is tight where the
    # variation constant vanishes
    part_b = True
    for t in (1.0, 2.0):
        eq = rpf_equilibrium(FULL2, BERN, t, depth=1)
        cert = gibbs_certificate(FULL2, BERN, t, eq.as_cylinder_measure(10),
                                 eq.pressure, range(1, 11), slack=1e-9)
        if not (cert.passed and cert.c_upper <= math.exp(t * BERN.bv_const)
                + 1e-9 and cert.c_lower > 0):
            part_b = False
    ok = part_a and part_b
    report(4, "two-sided Gibbs bounds (sup-weight exact, spectral certified)",
           ok)
    assert part_a
    assert part_b


def test_criterion_5_variational_inequality_over_periodic_orbits():
    rng = random.Random(20260825)
    orbits = set()
    while len(orbits) < 50:
        n = rng.randint(1, 12)
        w = [rng.choice(GOLDEN.symbols)]
        for _ in range(n - 1):
            w.append(rng.choice(GOLDEN.successors(w[-1])))
        w = tuple(w)
        if not GOLDEN.is_edge(w[-1], w[0]):
            continue
        canon = min(w[i:] + w[:i] for i in range(len(w)))
        orbits.add(canon)
    ok = True
    for t in (2.0, 5.0):
        P = transfer_pressure(GOLDEN, BERN, t).value
        eq = rpf_equilibrium(GOLDEN, BERN, t, depth=1)
        if abs(eq.entropy() + t * eq.lyapunov_exact() - P) > 1e-6:
            ok = False
        for w in orbits:
            # orbit measures carry zero entropy
            value = t * BERN.at_periodic(w) / len(w)
            if value > P + 1e-9:
                ok = False
            if P - value <= 1e-6:      # equality is reserved for equilibrium
                ok = False
    report(5, "h + t*integral(f) below pressure on 50 periodic orbits", ok)
    assert ok
    assert len(orbits) >= 50


def test_criterion_6_convexity_and_monotone_statistics():
    ts = [round(1.1 + 0.1 * k, 10) for k in range(90)]
    Ps, Ls, Hs = [], [], []
    for t in ts:
        eq = rpf_equilibrium(FULL2, BERN, t, depth=1)
        Ps.append(eq.pressure)
        Ls.append(eq.lyapunov_exact())
        Hs.append(eq.entropy())
    second = [Ps[i - 1] - 2 * Ps[i] + Ps[i + 1] for i in range(1, len(Ps) - 1)]
    convex = all(d >= -1e-8 for d in second)
    h_steps = [a - b for a, b in zip(Hs, Hs[1:])]
    l_steps = [b - a for a, b in zip(Ls, Ls[1:])]   # -L increases with t
    h_mono = all(s > 1e-10 for s in h_steps)
    l_mono = all(s > 1e-10 for s in l_steps)
    ok = convex and h_mono and l_mono
    report(6, "P convex on the 1.1..10 grid; H and -L strictly decreasing",
           ok)
    assert convex, min(second)
    assert h_mono, min(h_steps)
    assert l_mono, min(l_steps)


def _golden_cold_entropy(t: float) -> float:
    """Closed-form entropy of the equilibrium state of t*f, f = {0: -1, 1: 0},
    on the golden mean: h = log(lambda) - t * lambda'/lambda, where
    lambda^2 = x (lambda + 1) with x = e^(-t)."""
    x = math.exp(-t)
    lam = (x + math.sqrt(x * x + 4 * x)) / 2
    dlam = -x * (lam + 1) / (2 * lam - x)
    return math.log(lam) - t * (dlam / lam)


def test_criterion_7_cold_limits():
    # (a) unconstrained two-symbol model: everything concentrates on the
    # zero-cost loop
    rep_a = zero_temp_report(FULL2, BERN, [1.0, 2.0, 5.0, 10.0], depth=6)
    ok_a = (rep_a.beta == 0.0 and rep_a.lyapunov_gap < 1e-4
            and rep_a.entropy_gap < 1e-3 and rep_a.leak_ok)
    # (b) constrained model favouring the alternating loop
    gm_pot = LocallyConstant({0: -1.0, 1: 0.0})
    rep_b = zero_temp_report(GOLDEN, gm_pot, [1.0, 2.0, 5.0, 8.0, 12.0],
                             depth=6)
    lyap_b = abs(rep_b.trace.rows[0].lyapunov - (-0.5)) <= 1e-3
    rows_b = sorted(rep_b.trace.rows, key=lambda r: r.t)
    exact_b = all(abs(r.entropy - _golden_cold_entropy(r.t))
                  <= 1e-9 * _golden_cold_entropy(r.t) for r in rows_b)
    h_cold = _golden_cold_entropy(rep_b.t_max)
    gap_b = abs(rep_b.entropy_gap - h_cold) <= 1e-9 * h_cold
    mono_b = all(hot.entropy > cold.entropy
                 for hot, cold in zip(rows_b, rows_b[1:]))
    rate = (rep_b.t_max / 4 + 0.5) * math.exp(-rep_b.t_max / 2)
    rate_b = abs(rep_b.entropy_gap / rate - 1) <= 1e-5
    ent_b = exact_b and gap_b and mono_b and rate_b
    ok_b = rep_b.beta == pytest.approx(-0.5) and lyap_b and ent_b
    # (c) constant potential: no selection, the whole graph maximizes
    const = LocallyConstant.constant(FULL2, -0.3)
    sub_c = maximizing_subshift(FULL2, const)
    eq_c = rpf_equilibrium(FULL2, const, 7.0, depth=1)
    ok_c = (len(sub_c.edges) == 4
            and abs(sub_c.entropy - math.log(2)) <= 1e-12
            and eq_c.entropy() == math.log(2))
    ok = ok_a and ok_b and ok_c
    report(7, "zero-temperature gaps (free PASS, constrained entropy "
              f"gap {rep_b.entropy_gap:.6e} vs exact {h_cold:.6e}, "
              "constant PASS)", ok)
    assert ok_a, (rep_a.lyapunov_gap, rep_a.entropy_gap, rep_a.leakage)
    assert ok_c
    assert rep_b.beta == pytest.approx(-0.5) and lyap_b
    assert exact_b, [(r.t, r.entropy, _golden_cold_entropy(r.t))
                     for r in rows_b]
    assert gap_b, (rep_b.entropy_gap, h_cold)
    assert mono_b, [(r.t, r.entropy) for r in rows_b]
    assert rate_b, (f"cold-end entropy {rep_b.entropy_gap:.6e} at "
                    f"t={rep_b.t_max:g} is off the (t/4 + 1/2)*e^(-t/2) "
                    f"rate {rate:.6e}")


def test_criterion_8_tightness_cutoffs_and_marginal_bounds(renewal200):
    shift, _, eq = renewal200
    ts = tight_set(DECAY, 1.0, 0.1, 4, -math.log(2))
    cut_ok = ts.cutoffs == (80, 160, 320, 640)
    scale = math.exp(ts.s_lower - 1.0 * DECAY.bv_const)
    tails_ok = all(tail < tgt * scale
                   for tail, tgt in zip(ts.numeric_tails, ts.targets))
    # outside-the-box mass of the truncated equilibrium: by invariance every
    # coordinate has the level-1 marginal, so sum the per-cutoff tails
    marg = eq.as_cylinder_measure(1).marginal_vector(1)
    escape = math.fsum(v for cut in ts.cutoffs
                       for s, v in marg.items() if s > cut)
    mass_ok = escape < ts.eps
    chk = marginal_bound_check(DECAY, 2.0, eq.as_cylinder_measure(1),
                               -math.log(2))
    bound_ok = chk.all_ok
    ok = cut_ok and tails_ok and mass_ok and bound_ok
    report(8, "tightness cutoffs (80,160,320,640) confine the truncated "
              "equilibrium", ok)
    assert cut_ok, ts.cutoffs
    assert tails_ok
    assert mass_ok, escape
    assert bound_ok, chk.worst_ratio


def test_criterion_9_matrix_products_stay_almost_additive():
    coc = MatrixCocycle({0: [[1, 1], [1, 1]], 1: [[2, 1], [1, 1]]})
    rep = constants_report(FULL2, coc, 12)
    sub_ok = rep.within_declared and rep.aa_emp <= coc.aa_const + 1e-12
    # degenerate case: identical matrices reduce to an additive potential
    same = MatrixCocycle({0: [[1, 1], [1, 1]], 1: [[1, 1], [1, 1]]})
    add = LocallyConstant.constant(FULL2, math.log(2))
    p_coc = topological_pressure(FULL2, same, 1.0, 12).value
    p_add = topological_pressure(FULL2, add, 1.0, 12).value
    degen_ok = abs(p_coc - p_add) <= 1e-3
    ok = sub_ok and degen_ok
    report(9, "matrix-product potential within declared constants; "
              "degenerate case matches the additive pressure", ok)
    assert sub_ok, (rep.aa_emp, coc.aa_const)
    assert degen_ok, (p_coc, p_add)
