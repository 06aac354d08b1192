"""The word-level engine: whole levels of admissible words as integer arrays
(``word_levels``) and each family's ``level_extrema`` over them.

The oracles here enumerate words with itertools on the adjacency matrix,
enumerate cylinder continuations explicitly and multiply matrices with
``numpy.linalg.multi_dot`` word by word, so they share no code with the
engine.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (AffinePotential, BudgetExceeded, DecayPotential,
                         LocallyConstant, MatrixCocycle, RenewalRule,
                         ShiftModel, UnsupportedEnumeration, admissible_words, anneal, constants_report,
                         count_admissible_words, entropy_estimate,
                         gibbs_certificate, gibbs_construct, gibbs_weights,
                         gurevich_estimate, is_primitive, lyapunov,
                         periodic_points, rpf_equilibrium, shifts,
                         topological_pressure, weighted_block_matrix,
                         word_levels)

LETTERS = "abcde"
MAX_WORDS = 2000  # keeps the per-word oracles fast


@st.composite
def mixing_graphs(draw):
    """A primitive graph on 1-5 letters: a Hamiltonian cycle, a self-loop at
    the first letter and random extra edges."""
    m = draw(st.integers(1, 5))
    extra = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    adj = np.array(extra, dtype=np.uint8).reshape(m, m)
    for i in range(m):
        adj[i, (i + 1) % m] = 1
    adj[0, 0] = 1
    shift = ShiftModel(tuple(LETTERS[:m]), adj)
    assert is_primitive(shift)
    return shift


def oracle_words(shift, n):
    return [w for w in itertools.product(shift.symbols, repeat=n)
            if all(shift.is_edge(a, b) for a, b in zip(w, w[1:]))]


def scan_length(shift, n):
    """The longest length <= n whose level stays below MAX_WORDS."""
    while n > 1 and len(oracle_words(shift, n)) > MAX_WORDS:
        n -= 1
    return n


def oracle_lc(shift, table, r, word):
    """(sup, inf) of the window sums of ``word`` over every admissible
    continuation by r - 1 symbols."""
    n = len(word)
    sums = []
    for ext in itertools.product(shift.symbols, repeat=r - 1):
        x = tuple(word) + ext
        if all(shift.is_edge(a, b) for a, b in zip(x, x[1:])):
            sums.append(math.fsum(table[x[k:k + r]] for k in range(n)))
    return max(sums), min(sums)


def oracle_cocycle(mats, word):
    prod = mats[word[0]] if len(word) == 1 else \
        np.linalg.multi_dot([mats[s] for s in word])
    value = math.log(float(np.abs(prod).sum(axis=1).max()))
    return value, value


def assert_levels_match(shift, pot, n, oracle):
    levels = word_levels(shift, n)
    for k, (hi, lo) in enumerate(pot.level_extrema(shift, levels), start=1):
        rows = [tuple(shift.symbols[i] for i in row)
                for row in shifts._words(levels[:k]).tolist()]
        want = np.array([oracle(w) for w in rows])
        np.testing.assert_allclose(hi, want[:, 0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lo, want[:, 1], rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(mixing_graphs(), st.integers(1, 6))
def test_levels_match_itertools_order_and_parents(shift, n):
    n = scan_length(shift, n)
    levels = word_levels(shift, n)
    assert isinstance(levels, list) and len(levels) == n
    assert shifts.Level._fields == ("last", "parent", "suffix")
    previous = None
    for k, (last, parent, suffix) in enumerate(levels, start=1):
        words = shifts._words(levels[:k])
        rows = [tuple(shift.symbols[i] for i in row) for row in words.tolist()]
        assert rows == oracle_words(shift, k) == admissible_words(shift, k)
        assert np.array_equal(last, words[:, -1])
        if previous is not None:
            assert np.array_equal(previous[parent], words[:, :-1])
            assert np.array_equal(previous[suffix], words[:, 1:])
        previous = words


def table_for(shift, r, values):
    keys = oracle_words(shift, r)
    return {w: values[i % len(values)] for i, w in enumerate(keys)}


@settings(max_examples=40, deadline=None)
@given(mixing_graphs(), st.integers(1, 3), st.integers(1, 6),
       st.lists(st.floats(-5, 5), min_size=1, max_size=20))
def test_locally_constant_levels_match_continuation_oracle(shift, r, n, values):
    n = scan_length(shift, n)
    table = table_for(shift, r, values)
    pot = LocallyConstant(table, depth=r)
    assert_levels_match(shift, pot, n,
                        lambda w: oracle_lc(shift, table, r, w))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.floats(0.0, 3.0),
       st.floats(-2.0, 2.0), st.sampled_from(["log", "linear"]))
def test_decay_levels_match_closed_form_on_renewal(size, n, coef, offset, law):
    shift = RenewalRule().truncate(size)
    pot = DecayPotential(law, coef, offset)

    def f1(i):
        return offset - coef * (math.log(i) if law == "log" else i)

    assert_levels_match(shift, pot, n, lambda w: (math.fsum(map(f1, w)),) * 2)


@settings(max_examples=40, deadline=None)
@given(mixing_graphs(), st.sampled_from([2, 3]), st.integers(1, 6),
       st.lists(st.floats(0.1, 3.0), min_size=45, max_size=45))
def test_cocycle_levels_match_multi_dot(shift, dim, n, entries):
    n = scan_length(shift, n)
    mats = {s: np.array(entries[9 * i:9 * i + dim * dim]).reshape(dim, dim)
            for i, s in enumerate(shift.symbols)}
    pot = MatrixCocycle(mats)
    assert_levels_match(shift, pot, n, lambda w: oracle_cocycle(mats, w))


@settings(max_examples=40, deadline=None)
@given(mixing_graphs(), st.integers(1, 6),
       st.lists(st.floats(-5, 5), min_size=1, max_size=20),
       st.floats(-3, 3).filter(lambda x: x != 0), st.floats(-2, 2))
def test_affine_levels_swap_extrema_for_negative_multipliers(shift, n, values,
                                                            mult, drift):
    n = scan_length(shift, n)
    table = table_for(shift, 2, values)
    pot = AffinePotential(LocallyConstant(table, depth=2), mult, drift)

    def oracle(w):
        hi, lo = oracle_lc(shift, table, 2, w)
        if mult < 0:
            hi, lo = lo, hi
        return mult * hi + len(w) * drift, mult * lo + len(w) * drift

    assert_levels_match(shift, pot, n, oracle)


def test_per_word_extrema_are_one_row_levels(golden_mean):
    table = {(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.25}
    pot = LocallyConstant(table, depth=2)
    levels = word_levels(golden_mean, 5)
    hi, lo = pot.level_extrema(golden_mean, levels)[-1]
    words = admissible_words(golden_mean, 5)
    assert [pot.sup(w, golden_mean) for w in words] == pytest.approx(hi.tolist())
    assert [pot.inf(w, golden_mean) for w in words] == pytest.approx(lo.tolist())


def test_budget_raises_before_the_level_is_allocated():
    shift = ShiftModel.full(400)  # level 2 would hold 160 000 words
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            word_levels(shift, 3, budget=100_000)
        with pytest.raises(BudgetExceeded):
            admissible_words(shift, 3, budget=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_a_countable_rule_is_enumerated_only_through_a_truncation():
    with pytest.raises(UnsupportedEnumeration, match="finite truncation"):
        word_levels(RenewalRule(), 3)


def test_every_enumerating_entry_point_applies_the_word_budget(monkeypatch):
    # level 3 of the full 3-shift holds 27 words; the engine reads the
    # budget when it is called, so no caller passes it
    shift = ShiftModel.full(3)
    pot = LocallyConstant({0: 0.0, 1: -0.5, 2: -1.0})
    cocycle = MatrixCocycle({s: [[1.0, 2.0], [1.0 + s, 1.0]] for s in range(3)})
    mu = rpf_equilibrium(shift, pot, 1.0)
    monkeypatch.setattr(shifts, "WORD_BUDGET", 20)
    calls = {
        "word_levels": lambda: word_levels(shift, 3),
        "admissible_words": lambda: admissible_words(shift, 3),
        "periodic_points": lambda: periodic_points(shift, 3, 0),
        "gibbs_weights": lambda: gibbs_weights(shift, pot, 1.0, 3),
        "gibbs_construct": lambda: gibbs_construct(shift, pot, 1.0, 3, 1, 2),
        "entropy_estimate": lambda: entropy_estimate(shift, mu, 3),
        "lyapunov": lambda: lyapunov(shift, pot, mu, 3),
        "gibbs_certificate": lambda: gibbs_certificate(
            shift, pot, 1.0, mu, mu.pressure, range(1, 4)),
        "topological_pressure": lambda: topological_pressure(shift, cocycle, 1.0, 3),
        "gurevich_estimate": lambda: gurevich_estimate(shift, cocycle, 1.0, 3),
        "weighted_block_matrix": lambda: weighted_block_matrix(shift, pot, 1.0, 2),
        "anneal": lambda: anneal(shift, pot, [1.0, 2.0], depth=3),
        "as_cylinder_measure": lambda: mu.as_cylinder_measure(3),
    }
    for name, call in calls.items():
        with pytest.raises(BudgetExceeded, match="budget 20 at length 3$"):
            call()
            pytest.fail(name)


def test_the_engine_bounds_the_entries_it_holds(monkeypatch):
    # 16 x WORD_BUDGET array entries (3 per word) over the levels built so
    # far, whatever budget the caller passes; level 1 is checked like the rest
    loop = ShiftModel.from_edges([0], [(0, 0)])
    monkeypatch.setattr(shifts, "WORD_BUDGET", 10)
    assert len(word_levels(loop, 53, budget=10 ** 9)) == 53    # 159 entries
    with pytest.raises(BudgetExceeded,
                       match="160 array entries .* at length 54$"):
        word_levels(loop, 54, budget=10 ** 9)                  # 162 entries
    with pytest.raises(BudgetExceeded, match="budget 10 at length 1$"):
        word_levels(ShiftModel.full(11), 1)


def test_one_symbol_loop_scans_every_depth():
    # one word per level, 3 entries each: 20 000 levels hold 60 000 entries,
    # and the cocycle scans land in the subadditive bracket of log rho,
    # log rho <= f_n / n <= log rho + C_aa / n, rho = 1 + sqrt(6)
    loop = ShiftModel.from_edges([0], [(0, 0)])
    cocycle = MatrixCocycle({0: [[1.0, 2.0], [3.0, 1.0]]})
    n = 20_000
    log_rho = math.log(1.0 + math.sqrt(6.0))
    for scan in (topological_pressure, gurevich_estimate):
        start = time.perf_counter()
        est = scan(loop, cocycle, 1.0, n)
        assert time.perf_counter() - start < 3.0
        assert len(est.sequence) == n
        assert log_rho - 1e-12 <= est.value <= log_rho + cocycle.aa_const / n
    start = time.perf_counter()
    rep = constants_report(loop, LocallyConstant({0: 0.5}), n)
    assert time.perf_counter() - start < 3.0
    assert not rep.budget_hit and rep.depths_scanned == n


def test_count_admissible_words_is_exact():
    assert count_admissible_words(ShiftModel.full(3), 40) == 3 ** 40
    assert count_admissible_words(ShiftModel.full(10), 400) == 10 ** 400
    fib = [1, 1]
    while len(fib) < 103:
        fib.append(fib[-1] + fib[-2])
    golden_mean = ShiftModel.golden_mean()
    for n in (1, 2, 10, 50, 100):
        assert count_admissible_words(golden_mean, n) == fib[n + 1]
    assert count_admissible_words(golden_mean, 40) == 267914296
    big = count_admissible_words(golden_mean, 300)     # F(302)
    assert big == 581811569836004006491505558634099066259034153405766997246569401
    assert type(big) is int and len(str(big)) == 63
    assert count_admissible_words(RenewalRule().truncate(300), 30) == 160524402689


def _pointer_shifts():
    """The golden mean, the full 3-shift, a renewal truncation, the
    one-symbol loop and seeded random primitive graphs, each with a depth
    that keeps its levels small."""
    cases = [(ShiftModel.golden_mean(), 14), (ShiftModel.full(3), 7),
             (RenewalRule().truncate(6), 8),
             (ShiftModel.from_edges([0], [(0, 0)]), 20)]
    rng = np.random.default_rng(21)
    for _ in range(6):
        m = int(rng.integers(2, 6))
        adj = (rng.random((m, m)) < 0.4).astype(np.uint8)
        adj[np.arange(m), (np.arange(m) + 1) % m] = 1
        adj[0, 0] = 1
        cases.append((ShiftModel(tuple(range(m)), adj), 6))
    return cases


@pytest.mark.parametrize("shift, n", _pointer_shifts())
def test_suffix_is_the_located_row_of_the_shifted_word(shift, n):
    levels = word_levels(shift, n)
    assert not levels[0].suffix.any()           # the empty word
    for k in range(2, n + 1):
        suffix = levels[k - 1].suffix
        assert suffix.dtype == np.intp
        words = shifts._words(levels[:k])
        assert np.array_equal(suffix, shifts._locate(shift, levels, words[:, 1:]))


@pytest.mark.parametrize("shift, n", _pointer_shifts())
def test_pointer_windows_are_the_located_windows(shift, n):
    levels = word_levels(shift, n)
    words = shifts._words(levels)
    rows = np.arange(len(words))
    for j in range(n):
        for d in range(1, n - j + 1):
            assert np.array_equal(shifts._window(levels, rows, n, j, d),
                                  shifts._locate(shift, levels, words[:, j:j + d]))


def test_cocycle_constants_on_the_loop_are_quadratic_and_unchanged():
    # one word per level: the defect scan is depth^2 / 2 pointer steps, and
    # its maxima are the floats of the per-pair symbol walk it replaced
    loop = ShiftModel.from_edges([0], [(0, 0)])
    coc = MatrixCocycle({0: [[2.0, 1.0], [1.0, 3.0]]})
    assert constants_report(loop, coc, 40).aa_emp == 0.15770469262697162
    assert constants_report(loop, coc, 80).aa_emp == 0.15770469390216846
    rep = constants_report(loop, coc, 250)
    assert rep.depths_scanned == 250 and not rep.budget_hit
    assert 0.1577 < rep.aa_emp <= coc.aa_const
