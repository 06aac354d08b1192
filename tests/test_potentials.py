"""Potential families: cylinder extrema, declared vs empirical constants,
decay-law tails and configuration parsing."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import linalg, potentials
from thermoshift import (AffinePotential, DecayPotential, FullShiftRule,
                         LocallyConstant, MatrixCocycle, RenewalRule,
                         ShiftModel, ValidationError, admissible_words,
                         compact_approximation, constants_report,
                         potential_from_config, summability_report,
                         weighted_block_matrix, word_levels)
from thermoshift.shifts import Level


def test_depth1_values(golden_mean):
    pot = LocallyConstant({0: 0.25, 1: -1.5})
    assert pot.sup((0, 1, 0)) == pytest.approx(0.25 - 1.5 + 0.25)
    assert pot.sup((0, 1, 0)) == pot.inf((0, 1, 0))
    assert pot.at_periodic((0, 1)) == pytest.approx(-1.25)
    assert pot.sup_f1 == 0.25
    assert pot.aa_const == 0.0 and pot.bv_const == 0.0


def brute_depth2_extreme(shift, table, word, pick):
    """Maximize/minimize the window sum over one-symbol extensions."""
    vals = []
    for ext in shift.symbols:
        full = tuple(word) + (ext,)
        if not shift.is_admissible(full):
            continue
        vals.append(sum(table[full[k:k + 2]] for k in range(len(word))))
    return pick(vals)


def test_depth2_extrema_match_brute_force(golden_mean):
    table = {(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}
    pot = LocallyConstant(table, depth=2)
    for n in range(1, 6):
        for w in itertools.product((0, 1), repeat=n):
            if not golden_mean.is_admissible(w):
                continue
            assert pot.sup(w, golden_mean) == pytest.approx(
                brute_depth2_extreme(golden_mean, table, w, max))
            assert pot.inf(w, golden_mean) == pytest.approx(
                brute_depth2_extreme(golden_mean, table, w, min))


def test_depth2_needs_shift_and_periodic_wraps():
    table = {(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}
    pot = LocallyConstant(table, depth=2)
    with pytest.raises(ValidationError):
        pot.sup((0, 1))
    # periodic evaluation wraps the word around
    assert pot.at_periodic((0, 1)) == pytest.approx(0.5 + 0.0)
    assert pot.at_periodic((0,)) == pytest.approx(-1.0)


def test_depth2_constants():
    table = {(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}
    pot = LocallyConstant(table, depth=2)
    assert pot.bv_const == pytest.approx(1.5)  # (depth-1) * oscillation
    assert pot.aa_const == 0.0
    assert pot.sup_f1 == 0.5


def test_table_validation():
    with pytest.raises(ValidationError):
        LocallyConstant({})
    with pytest.raises(ValidationError):
        LocallyConstant({(0, 1): 0.0}, depth=1)
    pot = LocallyConstant({0: 0.0})
    with pytest.raises(ValidationError):
        pot.sup((7,))


# -- decay laws ------------------------------------------------------------


def test_decay_log_values():
    pot = DecayPotential("log", 2.0)
    assert pot.value(1) == 0.0
    assert pot.value(3) == pytest.approx(-2.0 * math.log(3))
    assert pot.sup((2, 1, 4)) == pytest.approx(-2.0 * (math.log(2) + math.log(4)))
    with pytest.raises(ValidationError):
        pot.value(0)
    with pytest.raises(ValidationError):
        pot.sup((1.5,))
    assert DecayPotential("linear", 0.5, offset=1.0).value(3) == \
        pytest.approx(1.0 - 1.5)


def test_decay_summability_thresholds():
    assert DecayPotential("log", 2.0).summable(1.0)       # sum i^-2
    assert not DecayPotential("log", 2.0).summable(0.5)   # sum i^-1
    assert not DecayPotential("log", 0.0).summable(1.0)   # f == 0 on N
    assert DecayPotential("linear", 0.1).summable(1.0)
    assert not DecayPotential("linear", 0.0).summable(1.0)


def test_log_tail_bounds_bracket_zeta():
    pot = DecayPotential("log", 2.0)
    exact_tail = math.pi ** 2 / 6 - math.fsum(i ** -2.0 for i in range(1, 81))
    assert pot.tail_weight_bound(80) >= exact_tail
    numeric = pot.tail_weight_numeric(80)
    assert numeric == pytest.approx(exact_tail, rel=1e-6)
    assert numeric >= exact_tail  # remainder uses an upper bound


def test_linear_tail_bound_is_exact_geometric():
    pot = DecayPotential("linear", 1.0)
    # sum_{i>n} e^{-i} has the closed form e^{-(n+1)} / (1 - e^{-1})
    got = pot.tail_weight_bound(10)
    assert got == pytest.approx(math.exp(-11) / (1 - math.exp(-1)), rel=1e-14)
    brute = math.fsum(math.exp(-i) for i in range(11, 200))
    assert got == pytest.approx(brute, rel=1e-12)


def test_linear_tail_bound_at_a_rate_below_the_float_spacing_of_one():
    # 1 - e^{-c} rounds to 0 below c ~ 1.1e-16; the series is still summable
    for coef in (1e-20, 1e-300):
        pot = DecayPotential("linear", coef)
        # sum_{i>10} e^{-ci} = e^{-11c} / (1 - e^{-c}), and e^{-11c} rounds to 1
        assert pot.tail_weight_bound(10) == pytest.approx(1.0 / coef, rel=1e-12)
    assert DecayPotential("linear", 1e-20).tail_weight_bound(10, t=1e-300) == math.inf


def test_weighted_log_tail_upper_bounds_brute_force():
    pot = DecayPotential("log", 2.0)
    t = 2.0
    brute = math.fsum((-t * pot.value(i)) * math.exp(t * pot.value(i))
                      for i in range(51, 200001))
    got = pot.weighted_log_tail(50, t, terms=100)
    assert got >= brute
    assert got == pytest.approx(brute, rel=1e-3)


def per_term_tail(pot, n, t, terms):
    """``tail_weight_numeric`` as a generator over ``value``, term by term."""
    partial = math.fsum(math.exp(t * pot.value(i))
                        for i in range(n + 1, n + terms + 1))
    return partial + pot.tail_weight_bound(n + terms, t)


@pytest.mark.parametrize("law", ["log", "linear"])
def test_numeric_tail_is_the_per_term_sum_bit_for_bit(law):
    for coef, offset, t, n, terms in itertools.product(
            (0.3, 2.0, 40.0), (0.0, 2.5), (0.5, 1.3, 7.0), (1, 1000, 70000),
            (1, 50, 20000)):
        pot = DecayPotential(law, coef, offset)
        assert _bits(pot.tail_weight_numeric(n, t, terms)) == \
            _bits(per_term_tail(pot, n, t, terms)), (coef, offset, t, n, terms)


@pytest.mark.parametrize("law", ["log", "linear"])
def test_numeric_tail_past_the_exp_range_is_infinite(law):
    # exp(800 * (1 - 0.01 log 4)) overflows, where the per-term sum raised
    pot = DecayPotential(law, 0.01, 1.0)
    with pytest.raises(OverflowError):
        per_term_tail(pot, 3, 800.0, 20000)
    assert pot.tail_weight_numeric(3, 800.0) == math.inf
    # a first symbol below 1 is refused, as ``value`` refused it
    with pytest.raises(ValidationError):
        pot.tail_weight_numeric(-1, 800.0)


# -- matrix cocycles -------------------------------------------------------


def test_cocycle_norm_matches_numpy():
    mats = {0: np.array([[2.0, 1.0], [1.0, 1.0]]),
            1: np.array([[1.0, 1.0], [1.0, 2.0]])}
    pot = MatrixCocycle(mats)
    for word in [(0,), (1, 0), (0, 1, 1, 0), (1, 1, 1, 0, 0)]:
        prod = mats[word[0]]
        for s in word[1:]:
            prod = prod @ mats[s]
        assert pot.sup(word) == pytest.approx(
            math.log(np.abs(prod).sum(axis=1).max()), rel=1e-12)
        assert pot.sup(word) == pot.inf(word) == pot.at_periodic(word)


def test_cocycle_rescaling_handles_long_words():
    pot = MatrixCocycle({0: [[1, 1], [1, 1]], 1: [[1, 1], [1, 1]]})
    # ||A^n|| = 2^n; at n = 600 the raw product would overflow
    assert pot.sup((0,) * 600) == pytest.approx(600 * math.log(2), rel=1e-12)


def two_pass_extrema(pot, shift, levels):
    """``MatrixCocycle.level_extrema`` as it took the norm: once to find the
    rows to rescale and again, over every row, for the value."""
    stack = np.stack([pot.matrices[s] for s in shift.symbols])
    out = []
    for last, parent, _ in levels:
        if not out:
            prod, logscale = stack[last], np.zeros(len(last))
        else:
            prod, logscale = prod[parent] @ stack[last], logscale[parent]
            nrm = np.abs(prod).sum(axis=2).max(axis=1)
            far = (nrm > 1e100) | (nrm < 1e-100)
            if far.any():
                logscale[far] += linalg._log(nrm[far])
                prod[far] /= nrm[far, None, None]
        value = logscale + linalg._log(np.abs(prod).sum(axis=2).max(axis=1))
        out.append((value, value))
    return out


def test_cocycle_rescale_branch_is_the_two_pass_norm_bit_for_bit(full2):
    # ||A_0^n|| ~ 1e30^n and ||A_1^n|| ~ 1e-30^n leave [1e-100, 1e100] from
    # n = 4 on, so every level past the third rescales some rows
    pot = MatrixCocycle({0: [[1e30, 2e30], [3e30, 1e30]],
                         1: [[1e-30, 5e-31], [2e-30, 1e-30]]})
    levels = word_levels(full2, 14)
    got = pot.level_extrema(full2, levels)
    want = two_pass_extrema(pot, full2, levels)
    assert len(got) == len(want) == 14
    for n, ((hi, lo), (w, _)) in enumerate(zip(got, want), start=1):
        assert _bits(hi) == _bits(w) and hi is lo, n
    assert got[-1][0].max() > 14 * 60 and got[-1][0].min() < -14 * 60


def test_cocycle_validation():
    with pytest.raises(ValidationError):
        MatrixCocycle({0: [[1.0, 0.0], [1.0, 1.0]]})  # not strictly positive
    with pytest.raises(ValidationError):
        MatrixCocycle({0: [[1.0, 1.0]]})
    with pytest.raises(ValidationError):
        MatrixCocycle({})
    pot = MatrixCocycle({0: [[1, 1], [1, 1]]})
    with pytest.raises(ValidationError):
        pot.sup((0, 5))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=9),
       st.integers(1, 4),
       st.lists(st.floats(0.25, 4.0), min_size=8, max_size=8))
def test_cocycle_almost_additivity_within_declared(word, split, entries):
    """|f_{n+m} - f_n - f_m o sigma^n| <= max_i log(max/min entry of A_i)."""
    split = min(split, len(word) - 1)
    mats = {0: np.array(entries[:4]).reshape(2, 2),
            1: np.array(entries[4:]).reshape(2, 2)}
    pot = MatrixCocycle(mats)
    word = tuple(word)
    defect = abs(pot.sup(word) - pot.sup(word[:split]) - pot.sup(word[split:]))
    assert defect <= pot.aa_const + 1e-9


def test_cocycle_normalize_nonpositive():
    # ||A_1 ... A_n|| <= prod ||A_i||, so f_n <= n (sup f_1 + C_aa)
    pot = MatrixCocycle({0: [[2, 1], [1, 1]], 1: [[1, 1], [1, 2]]})
    norm = AffinePotential(pot, 1.0, -(pot.sup_f1 + pot.aa_const))
    assert norm.aa_const == pot.aa_const
    for word in [(0,), (1,), (0, 1), (1, 0, 0, 1)]:
        assert norm.sup(word) <= 1e-12
        assert norm.sup(word) == pytest.approx(
            pot.sup(word) - len(word) * (pot.sup_f1 + pot.aa_const))


def test_affine_scaling():
    pot = MatrixCocycle({0: [[2, 1], [1, 1]], 1: [[1, 1], [1, 2]]})
    scaled = AffinePotential(pot, 2.5, 0.0)
    assert scaled.sup((0, 1)) == pytest.approx(2.5 * pot.sup((0, 1)))
    assert scaled.aa_const == pytest.approx(2.5 * pot.aa_const)


_TABLE2 = {(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0, (1, 1): 0.25}
_DECAY = DecayPotential("log", 2.0, 0.5)


@pytest.mark.parametrize("pot, word, expected", [
    (LocallyConstant({0: 0.25, 1: -1.5}), (1, 0, 0), -1.5),
    (LocallyConstant({0: 0.25, 1: -1.5}), (0,), 0.25),
    (LocallyConstant(_TABLE2, depth=2), (0, 1, 1), _TABLE2[(0, 1)]),
    (LocallyConstant(_TABLE2, depth=2), (1, 1), _TABLE2[(1, 1)]),
    (_DECAY, (3, 1), _DECAY.value(3)),
    (AffinePotential(LocallyConstant(_TABLE2, depth=2), 2.5, -0.75),
     (1, 0, 1), 2.5 * _TABLE2[(1, 0)] - 0.75),
    (AffinePotential(_DECAY, 0.5, 1.0), (7,), 0.5 * _DECAY.value(7) + 1.0),
], ids=["lc1", "lc1-single-symbol", "lc2", "lc2-exact-window", "decay",
        "affine-lc2", "affine-decay"])
def test_first_level_reads_the_leading_window(pot, word, expected):
    # levels of the word's windows, on the full shift on its symbols: the
    # k-window j ends in row[j + k - 1] and has parent j and suffix j + 1
    # among the (k - 1)-windows
    own = tuple(dict.fromkeys(word))
    shift = ShiftModel.full(len(own), own)
    row = np.array([shift.index(s) for s in word])
    n = len(row)
    levels = [Level(row, np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp))]
    for k in range(2, n + 1):
        at = np.arange(n - k + 1)
        levels.append(Level(row[k - 1:], at, at + 1))
    assert pot.first_level(shift, levels).tolist() == [expected]


def test_first_level_needs_an_additive_family():
    coc = MatrixCocycle({0: [[2, 1], [1, 1]], 1: [[1, 1], [1, 2]]})
    shift = ShiftModel.full(2)
    for pot in (coc, AffinePotential(coc, 2.0, 0.0)):
        with pytest.raises(ValidationError):
            pot.first_level(shift, word_levels(shift, 2))


def test_first_level_needs_a_level_as_deep_as_the_table():
    shift = ShiftModel.full(2)
    with pytest.raises(ValidationError, match="cover the potential depth"):
        LocallyConstant(_TABLE2, depth=2).first_level(shift, word_levels(shift, 1))


def _random_primitive(rng, m):
    """A Hamiltonian cycle, a self-loop at 0 and random extra edges."""
    adj = (rng.random((m, m)) < 0.3).astype(np.uint8)
    adj[np.arange(m), (np.arange(m) + 1) % m] = 1
    adj[0, 0] = 1
    return ShiftModel(tuple(range(m)), adj)


@pytest.mark.parametrize("seed", range(6))
def test_first_level_arrays_equal_table_reads(seed):
    # bitwise: the array route reads the same floats as a per-word lookup
    rng = np.random.default_rng(seed)
    shift = _random_primitive(rng, int(rng.integers(2, 6)))
    for r in (1, 2, 3):
        table = {w: float(rng.normal()) for w in admissible_words(shift, r)}
        pot = LocallyConstant(table, depth=r)
        affine = AffinePotential(pot, -1.7, 0.3)
        for d in range(r, r + 3):
            states = admissible_words(shift, d)
            want = np.array([table[u[:r]] for u in states])
            got = pot.first_level(shift, word_levels(shift, d))
            assert np.array_equal(got, want)
            assert np.array_equal(weighted_block_matrix(shift, pot, 1.0, d)[2], want)
            assert np.array_equal(affine.first_level(shift, word_levels(shift, d)),
                                  np.array([-1.7 * v + 0.3 for v in want.tolist()]))


@pytest.mark.parametrize("shift", [
    RenewalRule().truncate(60),
    # a sparse level alphabet, (1, 2, 7)
    compact_approximation(FullShiftRule(), 1, seed=7).levels[0],
], ids=["renewal", "approx-level"])
def test_decay_first_level_arrays_equal_value_reads(shift):
    decay = DecayPotential("log", 2.0, 0.5)
    linear = DecayPotential("linear", 0.3, -1.0)
    for pot, value in [(decay, decay.value), (linear, linear.value),
                       (AffinePotential(decay, 2.5, -0.75),
                        lambda i: 2.5 * decay.value(i) - 0.75)]:
        for d in (1, 2):
            want = np.array([value(u[0]) for u in admissible_words(shift, d)])
            assert np.array_equal(pot.first_level(shift, word_levels(shift, d)), want)
            assert np.array_equal(weighted_block_matrix(shift, pot, 1.0, d)[2], want)


@pytest.mark.parametrize("symbols", [(0, 1), (1, -2), ("a", "b"), (1, "2"),
                                     (1, 2.0), (True, 2)])
def test_decay_first_level_checks_every_symbol_like_value(symbols):
    shift = ShiftModel(symbols, np.ones((2, 2), dtype=np.uint8))
    levels = word_levels(shift, 1)
    for pot in (DecayPotential("log", 2.0, 0.5), DecayPotential("linear", 0.3)):
        try:
            want = [pot.value(s) for s in symbols]
        except ValidationError as err:
            with pytest.raises(ValidationError, match=re.escape(str(err))):
                pot.first_level(shift, levels)
        else:
            assert pot.first_level(shift, levels).tolist() == want


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("symbols", [
    np.arange(1, 20001),
    np.array(compact_approximation(RenewalRule(), 3).levels[-1].symbols),
    # a sparse level alphabet, (1, 2, 7)
    np.array(compact_approximation(FullShiftRule(), 1, seed=7).levels[0].symbols),
], ids=["1..20000", "renewal-level", "sparse-level"])
def test_table_backed_law_is_value_bitwise(symbols):
    for pot in (DecayPotential("log", 2.0, 0.5), DecayPotential("log", 1.3),
                DecayPotential("linear", 0.3, -1.0)):
        assert _bits(pot._law(symbols)) == _bits([pot.value(int(i)) for i in symbols])


def test_law_past_the_float_range_is_minus_inf_without_a_warning():
    # the suite turns a RuntimeWarning into an error, so an overflow warning
    # in the product raises here
    symbols = np.arange(1, 50)
    for pot in (DecayPotential("log", 1e308), DecayPotential("linear", 1e308, 2.0)):
        got = pot._law(symbols)
        assert _bits(got) == _bits([pot.value(int(i)) for i in symbols])
        assert np.isneginf(got[-1]) and np.isfinite(got[0])


def test_log_table_grows_without_changing_its_entries():
    before = linalg._LOG_TABLE
    assert not before.flags.writeable
    top = len(before) + 100
    want = [math.log(i) for i in range(1, top + 1)]
    assert _bits(linalg._log_ints(np.arange(1, top + 1))) == _bits(want)
    after = linalg._LOG_TABLE
    assert len(after) == top + 1 and not after.flags.writeable
    assert _bits(after[:len(before)]) == _bits(before)
    # past the cap the integers are mapped directly, and the table stays
    far = np.array([3, linalg._LOG_TABLE_CAP + 5])
    assert _bits(linalg._log_ints(far)) == _bits([math.log(3), math.log(int(far[1]))])
    assert linalg._LOG_TABLE is after


# -- configuration ---------------------------------------------------------


def test_potential_from_config_round_trips():
    lc = potential_from_config({"family": "locally_constant", "depth": 1,
                                "table": {"0": 0.0, "1": -1.0}})
    assert isinstance(lc, LocallyConstant)
    assert lc.sup((1,)) == -1.0
    d2 = potential_from_config({"family": "locally_constant", "depth": 2,
                                "table": {"0,0": -1.0, "0,1": 0.5, "1,0": 0.0}})
    assert d2.depth == 2
    dec = potential_from_config({"family": "decay", "law": "log", "coef": 2.0})
    assert isinstance(dec, DecayPotential)
    # numeric strings parse, as in the shipped cocycle config
    dec2 = potential_from_config({"family": "decay", "coef": "2"})
    assert dec2.coef == 2.0
    d2s = potential_from_config({"family": "locally_constant", "depth": "2",
                                 "table": {"0,0": "-1", "0,1": 0.5}})
    assert d2s.depth == 2 and d2s.table[(0, 0)] == -1.0
    coc = potential_from_config({
        "family": "matrix_cocycle",
        "matrices": {"0": [["2", "1"], ["1", "1"]],
                     "1": [["1", "1"], ["1", "2"]]}})
    assert isinstance(coc, MatrixCocycle)
    assert coc.matrices[0][0, 0] == 2.0


def test_potential_from_config_errors():
    with pytest.raises(ValidationError, match="family"):
        potential_from_config({"family": "mystery"})
    with pytest.raises(ValidationError, match="table"):
        potential_from_config({"family": "locally_constant"})
    with pytest.raises(ValidationError, match="matrices"):
        potential_from_config({"family": "matrix_cocycle"})
    # numeric fields must be finite numbers (numeric strings included)
    for cfg in [
        {"family": "locally_constant", "depth": "two", "table": {"0": 0.0}},
        {"family": "locally_constant", "depth": [1], "table": {"0": 0.0}},
        {"family": "locally_constant", "table": {"0": "abc", "1": 0.0}},
        {"family": "locally_constant", "table": {"0": "NaN", "1": 0.0}},
        {"family": "locally_constant", "table": {"0": math.inf, "1": 0.0}},
        {"family": "decay", "coef": [2.0]},
        {"family": "decay", "coef": "Infinity"},
        {"family": "decay", "coef": 2.0, "offset": None},
        {"family": "matrix_cocycle", "matrices": {"0": [["x", "1"], ["1", "1"]]}},
        {"family": "matrix_cocycle", "matrices": {"0": [[1, 1], [1, math.nan]]}},
        {"family": "matrix_cocycle", "matrices": {"0": 5}},
        {"family": "matrix_cocycle", "matrices": {"0": [[1, 1], [1]]}},
        {"family": "matrix_cocycle", "matrices": {"0": [[1]]}, "aa_const": "x"},
        {"family": "matrix_cocycle", "matrices": {"0": [[1]]}, "aa_const": "-inf"},
    ]:
        with pytest.raises(ValidationError):
            potential_from_config(cfg)


# -- empirical constants ---------------------------------------------------


def test_additive_families_have_exactly_zero_defects(full2, golden_mean):
    rep = constants_report(full2, LocallyConstant({0: 0.3, 1: -0.7}), 6)
    assert rep.aa_emp == 0.0 and rep.bv_emp == 0.0
    assert rep.within_declared
    trunc = ShiftModel.from_edges((1, 2, 3), [(1, 1), (1, 2), (1, 3), (2, 1), (3, 2)])
    rep2 = constants_report(trunc, DecayPotential("log", 2.0), 5)
    assert rep2.aa_emp == 0.0 and rep2.bv_emp == 0.0
    lc2 = LocallyConstant({(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}, depth=2)
    scaled = AffinePotential(lc2, 2.5, 0.0)
    for pot, shift in ((scaled, golden_mean),
                       (AffinePotential(lc2, 2.5, -1.25), golden_mean),
                       (AffinePotential(LocallyConstant({0: 0.3, 1: -0.7}),
                                        0.5, -1.0), full2),
                       (AffinePotential(DecayPotential("log", 2.0), 3.0, 0.0),
                        trunc)):
        rep3 = constants_report(shift, pot, 5)
        assert rep3.aa_emp == 0.0
        assert rep3.within_declared


def test_depth2_empirical_variation(golden_mean):
    pot = LocallyConstant({(0, 0): -1.0, (0, 1): 0.5, (1, 0): 0.0}, depth=2)
    rep = constants_report(golden_mean, pot, 6)
    assert rep.aa_emp == 0.0          # still additive
    assert rep.bv_emp <= pot.bv_const + 1e-12
    assert rep.variation_by_depth[0] > 0.0  # depth-1 cylinders see the window


def test_cocycle_empirical_below_declared(full2):
    pot = MatrixCocycle({0: [[1, 1], [1, 1]], 1: [[2, 1], [1, 1]]})
    rep = constants_report(full2, pot, 8)
    assert 0.0 < rep.aa_emp <= rep.declared_aa
    assert rep.bv_emp == 0.0          # constant on cylinders
    assert rep.within_declared


def test_constants_report_budget(full2, bernoulli):
    rep = constants_report(full2, bernoulli, 10, word_budget=50)
    assert rep.budget_hit
    assert rep.depths_scanned < 10


@pytest.mark.parametrize("budget", [0, -5, True, 2.0])
def test_constants_report_rejects_a_budget_that_scans_nothing(
        monkeypatch, full2, bernoulli, budget):
    def forbidden(*args):
        raise AssertionError("a level was built before the budget was checked")

    monkeypatch.setattr(potentials, "_levels", forbidden)
    with pytest.raises(ValidationError,
                       match="word_budget must be a positive integer"):
        constants_report(full2, bernoulli, 3, word_budget=budget)


def test_constants_report_budget_of_one_word(full2, bernoulli):
    rep = constants_report(full2, bernoulli, 3, word_budget=1)
    assert rep.budget_hit
    assert rep.depths_scanned < 3


# -- summability reports ---------------------------------------------------


def test_summability_decay_summable():
    rep = summability_report(DecayPotential("log", 2.0), t=2.0)
    assert rep.verdict == "summable"
    assert rep.t_variant_summable
    target = math.pi ** 2 / 6
    assert rep.partial_sum <= target <= rep.partial_sum + rep.tail_bound


@pytest.mark.parametrize("law, coef, offset, t", [
    ("log", 2.0, 0.0, 1.3), ("log", 1.5, -0.25, 2.0), ("linear", 0.5, 1.0, 3.0),
    # t = 1 shares one exp pass between the two sums
    ("log", 2.0, 0.0, 1.0), ("log", 1.5, -0.25, 1.0), ("linear", 0.5, 1.0, 1.0)])
def test_summability_decay_sums_are_the_per_value_sums(law, coef, offset, t):
    pot = DecayPotential(law, coef, offset)
    rep = summability_report(pot, t=t, terms=3000)
    f = [pot.value(i) for i in range(1, 3001)]
    assert rep.partial_sum == math.fsum(math.exp(v) for v in f)
    assert rep.partial_sum_t == math.fsum((-t * v) * math.exp(t * v) for v in f)


@pytest.mark.parametrize("pot, t", [
    (DecayPotential("log", 1.7), 1e300),          # (s - 1)**2 overflowed
    (DecayPotential("log", 1.7, 1.0), 800.0),     # exp(t * f) overflowed
    (DecayPotential("linear", 1e10), 1e300),      # t * f is -inf
    (DecayPotential("log", 1.7, 1.0), -800.0),
    (DecayPotential("log", 1.7, 800.0), 1.0),     # exp(f) overflows at t = 1
    (DecayPotential("linear", 1.0, 800.0), 3.0),
], ids=["huge-t", "overflow-t", "inf-tf", "negative-t", "huge-offset",
        "linear-offset"])
def test_summability_report_never_raises_or_gives_nan(pot, t):
    with np.errstate(all="raise"):
        rep = summability_report(pot, t=t)
    numbers = [rep.partial_sum, rep.tail_bound, rep.partial_sum_t, rep.tail_bound_t]
    assert not any(math.isnan(x) for x in numbers), rep
    at_one = summability_report(pot, t=1.0)
    assert rep[:3] == at_one[:3]
    assert rep.t == t


def test_summability_overflow_rules():
    # a term whose exponential underflows adds 0, one that overflows makes
    # its sum inf (-inf for the t-weighted sum, whose large terms are -t f e^{t f})
    rep = summability_report(DecayPotential("log", 1.7, 1.0), t=800.0)
    assert rep.partial_sum_t == -math.inf and rep.tail_bound_t == 0.0
    rep = summability_report(DecayPotential("log", 1.7), t=1e300)
    assert rep.partial_sum_t == 0.0     # 0 at i = 1, every other term underflows
    rep = summability_report(DecayPotential("log", 1.7, 800.0), t=1.0)
    assert rep.partial_sum == math.inf and rep.tail_bound == math.inf
    assert rep.partial_sum_t == -math.inf


def _plain_log_remainder(pot, X, t):
    """The log-law remainder as the plain formula writes it:
    e^{t offset} (s X^{1-s} (log X/(s-1) + 1/(s-1)^2) - t offset X^{1-s}/(s-1))."""
    s = t * pot.coef
    t1 = X ** (1.0 - s) / (s - 1.0)
    t2 = X ** (1.0 - s) * (math.log(X) / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    return math.exp(t * pot.offset) * (s * t2 - t * pot.offset * t1)


def test_weighted_log_tail_remainder_needs_no_overflowing_intermediate():
    for pot, t in [(DecayPotential("log", 2.0), 2.0),
                   (DecayPotential("log", 1.5, -0.25), 1.3)]:
        assert pot.weighted_log_tail(50, t, terms=0) == pytest.approx(
            _plain_log_remainder(pot, 50, t), rel=1e-13)
    # e^{t offset} = e^800 overflows a float and X^{1-s} = 10^-399 underflows;
    # their product, e^{800 - 399 log 10}, does not
    pot, t, X = DecayPotential("log", 0.5, 1.0), 800.0, 10
    with pytest.raises(OverflowError):
        _plain_log_remainder(pot, X, t)
    s = t * pot.coef
    want = math.exp(t + (1 - s) * math.log(X)) * (
        s * (math.log(X) / (s - 1) + 1 / (s - 1) ** 2) - t / (s - 1))
    assert 0.0 < pot.weighted_log_tail(X, t, terms=0) == pytest.approx(want, rel=1e-12)
    assert DecayPotential("log", 1.7).weighted_log_tail(X, 1e300, terms=0) == 0.0
    # 1 - e^{-c} is 0 in floats at c = 1e-20
    assert math.isfinite(DecayPotential("linear", 1e-20).weighted_log_tail(10, 1.0, terms=0))


def test_summability_flat_countable_potential_diverges():
    rep = summability_report(DecayPotential("log", 0.0), t=1.0)
    assert rep.verdict == "not-summable"
    assert math.isinf(rep.tail_bound)


def test_summability_t_tail_is_infinite_where_the_t_series_diverges():
    rep = summability_report(DecayPotential("log", 0.4), t=2.0)
    assert not rep.t_variant_summable
    assert rep.tail_bound_t == math.inf


def test_summability_finite_alphabet(full2, bernoulli):
    rep = summability_report(bernoulli, t=1.0, shift=full2)
    assert rep.verdict == "summable"
    assert rep.partial_sum == pytest.approx(1.0 + math.exp(-1.0))
    assert rep.tail_bound == 0.0


def test_summability_unknown_without_context():
    pot = MatrixCocycle({0: [[1, 1], [1, 1]]})
    rep = summability_report(pot, t=1.0)
    assert rep.verdict == "unknown"
