"""Shift models, word enumeration, mixing certificates and the nested
finite-approximation construction.

Brute-force oracles here use itertools directly on the adjacency matrix so
they share no code with the library paths under test.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (BudgetExceeded, ConstructionFailure, DecayPotential,
                         FullShiftRule, MatrixCocycle, RenewalRule, ShiftModel,
                         ValidationError, admissible_words, anneal,
                         compact_approximation, count_admissible_words,
                         gurevich_estimate, is_primitive, mixing_certificate,
                         periodic_points, pressure_curve, rpf_equilibrium,
                         shift_from_config, transfer_pressure, word_levels)
from thermoshift import cli, shifts
from thermoshift.shifts import (WORD_BUDGET, AmbientRule, _bit_rows,
                                _edge_thresholds, _feasibility, _fresh_feasibility,
                                _fresh_interior, _period,
                                _plain_interiors, _strong_components)


def brute_words(shift, n):
    out = []
    for w in itertools.product(shift.symbols, repeat=n):
        if all(shift.is_edge(a, b) for a, b in zip(w, w[1:])):
            out.append(w)
    return out


def test_model_validation():
    with pytest.raises(ValidationError):
        ShiftModel((0, 1), np.array([[1, 1]]))  # not square
    with pytest.raises(ValidationError):
        ShiftModel((0, 0), np.eye(2))  # duplicate symbols
    with pytest.raises(ValidationError):
        ShiftModel((0, 1), np.array([[1, 1], [0, 0]]))  # zero row
    with pytest.raises(ValidationError):
        ShiftModel((0, 1), np.array([[1, 0], [1, 0]]))  # zero column
    # an edge is an entry equal to 1; any entry other than 0 or 1 is an error
    for bad in (np.nan, -1, 2, 0.5, np.inf):
        adj = np.ones((2, 2))
        adj[0, 1] = bad
        with pytest.raises(ValidationError, match="0 or 1"):
            ShiftModel((0, 1), adj)
    for good in (np.eye(2)[[1, 0]] + np.eye(2), np.ones((2, 2), dtype=bool),
                 [[1, 1], [1, 0]]):
        assert ShiftModel((0, 1), good).adjacency.dtype == np.uint8
    # edge codes go through the same checks, and must be ascending and in range
    for bad in ([1, 0, 3], [0, 0, 1, 2], [-1, 0, 3], [0, 1, 2, 4]):
        with pytest.raises(ValidationError):
            ShiftModel._from_codes((0, 1), np.array(bad))
    with pytest.raises(ValidationError, match="zero column"):
        ShiftModel._from_codes((0, 1), np.array([0, 2]))
    assert ShiftModel._from_codes((0, 1), np.array([0, 1, 2])).adjacency.tolist() == \
        [[1, 1], [1, 0]]


def test_from_edges_and_membership(golden_mean):
    assert golden_mean.is_edge(0, 0)
    assert golden_mean.is_edge(1, 0)
    assert not golden_mean.is_edge(1, 1)
    assert golden_mean.successors(0) == (0, 1)
    assert golden_mean.successors(1) == (0,)
    renewal = RenewalRule().truncate(300)     # the first and the last row
    assert renewal.successors(1) == tuple(range(1, 301))
    assert renewal.successors(300) == (299,)
    with pytest.raises(ValidationError):
        golden_mean.index(7)


def test_golden_mean_word_counts_are_fibonacci(golden_mean):
    # |W_n| = F_{n+2} with F_1 = F_2 = 1
    fib = [1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 11):
        assert count_admissible_words(golden_mean, n) == fib[n + 1]
        assert len(admissible_words(golden_mean, n)) == fib[n + 1]


def test_words_budget(golden_mean):
    with pytest.raises(BudgetExceeded):
        admissible_words(golden_mean, 10, budget=10)


def test_words_are_sorted_and_admissible(golden_mean):
    words = admissible_words(golden_mean, 6)
    assert words == sorted(words)
    assert words == brute_words(golden_mean, 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.sets(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1)),
                                min_size=1))),
    st.integers(1, 5))
def test_word_enumeration_matches_brute_force(spec, n_len):
    n, edges = spec
    adj = np.zeros((n, n), dtype=np.uint8)
    for a, b in edges:
        adj[a, b] = 1
    if (adj.sum(axis=1) == 0).any() or (adj.sum(axis=0) == 0).any():
        return  # not a valid shift; construction would reject it
    shift = ShiftModel(tuple(range(n)), adj)
    assert admissible_words(shift, n_len) == brute_words(shift, n_len)
    assert count_admissible_words(shift, n_len) == len(brute_words(shift, n_len))
    for a in shift.symbols:
        assert periodic_points(shift, n_len, a) == brute_periodic(shift, n_len, a)


def brute_periodic(shift, n, a):
    out = []
    for w in itertools.product(shift.symbols, repeat=n):
        if w[0] != a:
            continue
        if all(shift.is_edge(x, y) for x, y in zip(w, w[1:])) and \
                shift.is_edge(w[-1], w[0]):
            out.append(w)
    return sorted(out)


def test_periodic_points_against_brute_force(golden_mean, full2):
    for shift in (golden_mean, full2):
        for n in range(1, 7):
            for a in shift.symbols:
                assert periodic_points(shift, n, a) == brute_periodic(shift, n, a)


def test_periodic_point_counts(full2, golden_mean):
    # full shift: fixing the first symbol leaves 2^(n-1) closed words
    assert len(periodic_points(full2, 10, 0)) == 512
    # golden mean through 0: Fibonacci again
    counts = [len(periodic_points(golden_mean, n, 0)) for n in range(1, 6)]
    assert counts == [1, 2, 3, 5, 8]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10 ** 9))
def test_strong_components_match_reachability(n, seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < rng.choice([0.1, 0.25, 0.5])
    # reach[u, v]: a walk of length >= 0 runs from u to v
    reach = np.eye(n, dtype=bool) | adj
    for _ in range(n):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    comp = np.array(_strong_components(n, np.flatnonzero(adj)))
    assert np.array_equal(comp[:, None] == comp[None, :], reach & reach.T)
    # each component is labelled by one of its own vertices
    assert (comp[comp] == comp).all()


def test_strong_components_of_a_long_chain_need_no_recursion():
    # 5000 -> 4999 -> ... -> 0 -> 5000 deeper than the recursion limit
    n = 5000
    v = np.arange(n)
    ring = v * n + (v - 1) % n
    assert len(set(_strong_components(n, ring))) == 1
    chain = v[1:] * n + v[:-1]
    assert _strong_components(n, chain) == list(range(n))


# -- mixing ----------------------------------------------------------------


def test_mixing_certificate_golden_mean(golden_mean):
    cert = mixing_certificate(golden_mean)
    assert cert.mixing and cert.status == "mixing"
    assert cert.primitive_exponent == 2
    # 1 -> 1 needs the detour 1 0 1, so the first all-lengths word length is 3
    assert cert.thresholds[(1, 1)] == 3
    assert cert.thresholds[(0, 0)] == 2


def test_mixing_certificate_periodic_and_reducible():
    two_cycle = ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])
    assert mixing_certificate(two_cycle).status == "periodic"
    assert not is_primitive(two_cycle)
    lower = ShiftModel.from_edges((0, 1), [(0, 0), (1, 0), (1, 1)])
    assert mixing_certificate(lower).status == "reducible"


def test_mixing_certificate_holds_one_power_at_a_time():
    # the renewal truncation's exponent is its size; all 150 boolean powers
    # of 150 x 150 would take 3.4 MB
    shift = RenewalRule().truncate(150)
    assert shift.period == 1                # the cached traversal
    tracemalloc.start()
    try:
        cert = mixing_certificate(shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.primitive_exponent == 150
    assert cert.thresholds == _thresholds_by_dense_powers(shift.symbols,
                                                          shift.adjacency.astype(bool))
    assert peak < 1e6


def exists_path_of_length(shift, a, b, edges):
    """Brute-force reachability with exactly ``edges`` steps."""
    frontier = {a}
    for _ in range(edges):
        frontier = {s for u in frontier for s in shift.successors(u)}
    return b in frontier


def test_thresholds_are_sharp(golden_mean):
    cert = mixing_certificate(golden_mean)
    for (a, b), nw in cert.thresholds.items():
        # words of length nw, nw+1, ... all exist (word length = edges + 1)
        for extra in range(4):
            assert exists_path_of_length(golden_mean, a, b, nw - 1 + extra)
        if nw > 2:
            assert not exists_path_of_length(golden_mean, a, b, nw - 2)


def test_is_primitive_matches_certificate(full2, golden_mean):
    for shift in (full2, golden_mean):
        assert is_primitive(shift) == mixing_certificate(shift).mixing


def _essential(adj):
    """``adj`` with every all-zero row and column given one cycle edge."""
    n = len(adj)
    a = np.array(adj, dtype=np.uint8).reshape(n, n)
    for i in np.flatnonzero(a.sum(axis=1) == 0):
        a[i, (i + 1) % n] = 1
    for j in np.flatnonzero(a.sum(axis=0) == 0):
        a[(j - 1) % n, j] = 1
    return ShiftModel(tuple(range(n)), a)


def random_graphs(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                           min_size=n, max_size=n)).map(_essential)


@settings(max_examples=200, deadline=None)
@given(random_graphs(6), st.integers(1, 3))
def test_block_graph_primitive_exactly_when_shift_is(shift, r):
    # r-block presentation: states are admissible r-words, u -> u[1:] + (s,)
    states = admissible_words(shift, r)
    idx = {w: i for i, w in enumerate(states)}
    adj = np.zeros((len(states), len(states)), dtype=np.uint8)
    for u in states:
        for s in shift.successors(u[-1]):
            adj[idx[u], idx[u[1:] + (s,)]] = 1
    block = ShiftModel(tuple(states), adj)
    assert is_primitive(block) == is_primitive(shift)


def _bool_power(a, k):
    p = np.eye(len(a), dtype=bool)
    for _ in range(k):
        p = (p.astype(float) @ a.astype(float)) > 0
    return p


@settings(max_examples=300, deadline=None)
@given(random_graphs(7))
def test_mixing_status_matches_matrix_power_oracle(shift):
    a = shift.adjacency.astype(bool)
    n = len(a)
    cert = mixing_certificate(shift)
    if not _bool_power(a | np.eye(n, dtype=bool), n - 1).all():
        assert cert.status == "reducible"
    elif _bool_power(a, (n - 1) ** 2 + 1).all():
        assert cert.status == "mixing"
        gamma = next(k for k in range(1, (n - 1) ** 2 + 2)
                     if _bool_power(a, k).all())
        assert cert.primitive_exponent == gamma
        # every power from gamma on is positive, so the smallest e with
        # A^k[i, j] > 0 for all k in [e, gamma] gives the word length e + 1
        powers = [_bool_power(a, k) for k in range(1, gamma + 1)]
        want = {}
        for (i, x), (j, y) in itertools.product(enumerate(shift.symbols), repeat=2):
            e = min(e for e in range(1, gamma + 1)
                    if all(p[i, j] for p in powers[e - 1:]))
            want[(x, y)] = max(2, e + 1)
        assert cert.thresholds == want
        assert list(cert.thresholds) == list(want)
    else:
        assert cert.status == "periodic"
    assert is_primitive(shift) == cert.mixing


def test_large_non_primitive_graphs_classify_without_powers():
    n = 300
    cycle = ShiftModel(tuple(range(n)), np.roll(np.eye(n, dtype=np.uint8), 1, axis=1))
    chain = ShiftModel(tuple(range(n)),
                       np.eye(n, dtype=np.uint8) + np.eye(n, k=1, dtype=np.uint8))
    assert mixing_certificate(cycle).status == "periodic"
    assert mixing_certificate(chain).status == "reducible"
    assert not is_primitive(cycle) and not is_primitive(chain)


def _period_by_dense_levels(adj):
    """The period by one dense boolean step per BFS level, forward and
    backward: the traversal that ``_period`` replaced, kept as its oracle."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    for mat in (adj.T, adj):
        level = np.full(n, -1, dtype=np.int64)
        level[0] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[0] = True
        depth = 0
        while frontier.any():
            depth += 1
            frontier = mat[frontier].any(axis=0) & (level < 0)
            level[frontier] = depth
        if (level < 0).any():
            return 0
    u, v = np.nonzero(adj)
    return int(np.gcd.reduce(level[u] + 1 - level[v]))


def _seeded_graphs():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(60):
        n = int(rng.integers(1, 40))
        out.append(rng.random((n, n)) < rng.uniform(0.02, 0.4))
    for n, p in ((12, 3), (30, 5), (24, 4)):
        # a cycle of p layers, edges only from layer k to layer k + 1
        layer = np.arange(n) % p
        a = (layer[:, None] + 1) % p == layer[None, :]
        cycle = np.roll(np.eye(n, dtype=bool), 1, axis=1)
        out.append(a & (rng.random((n, n)) < 0.5) | cycle)
    for n in (10, 25):
        # two strongly connected halves joined one way only
        a = np.zeros((n, n), dtype=bool)
        h = n // 2
        a[:h, :h] = rng.random((h, h)) < 0.5
        a[h:, h:] = rng.random((n - h, n - h)) < 0.5
        a[0, h] = True
        out.append(a)
    out.append(RenewalRule().truncate(300).adjacency)
    out.append(RenewalRule().truncate(1200).adjacency)
    for n in (2, 40, 1200):
        chain = np.eye(n, k=1, dtype=bool)
        out.append(chain)                              # open at both ends
        out.append(chain | np.eye(n, dtype=bool))      # a loop at every state
        ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
        out.append(ring)                               # period n
        chord = ring.copy()
        chord[0, n // 2] = True                        # period gcd(n, n - n//2 + 1)
        out.append(chord)
    out.append(FullShiftRule().truncate(50).adjacency)
    out.append(np.ones((1, 1), dtype=bool))
    out.append(np.ones((200, 200), dtype=bool))
    return out


def _thresholds_by_dense_powers(symbols, adj):
    """Mixing thresholds from every boolean power up to the primitive
    exponent: a pair's word length is the last edge count with no path
    between them, plus 2 (floored at 2)."""
    a = adj.astype(np.float64)
    power, last_gap, k = adj, np.zeros(adj.shape, dtype=np.int64), 1
    while not power.all():
        last_gap[~power] = k
        power, k = (power @ a) > 0, k + 1
    rows = np.maximum(2, last_gap + 2).tolist()
    return {(x, y): rows[i][j] for i, x in enumerate(symbols)
            for j, y in enumerate(symbols)}


def test_period_matches_the_dense_level_traversal():
    periods = []
    for adj in _seeded_graphs():
        n = len(adj)
        periods.append(_period((n, np.flatnonzero(adj))))
        assert periods[-1] == _period_by_dense_levels(adj)
        if not (adj.any(axis=0).all() and adj.any(axis=1).all()):
            continue
        # a shift: its successors, period and thresholds against the dense rows
        symbols = tuple(range(100, 100 + n))
        shift = ShiftModel(symbols, adj)
        assert shift.period == periods[-1]
        for i, a in enumerate(symbols):
            assert shift.successors(a) == tuple(symbols[j] for j in np.flatnonzero(adj[i]))
        if n <= 200:    # the power loops of larger primitive graphs run long
            cert = mixing_certificate(shift)
            want = _thresholds_by_dense_powers(symbols, adj) if cert.mixing else None
            assert cert.thresholds == want
            assert want is None or list(cert.thresholds.items()) == list(want.items())
    # the set covers primitive, periodic and reducible graphs
    assert {0, 1} <= set(periods) and max(periods) > 1


def _dense_admissible(adj, word):
    return all(adj[u, v] for u, v in zip(word, word[1:]))


def test_edge_queries_match_the_dense_matrix():
    rng = np.random.default_rng(31)
    for adj in _seeded_graphs():
        if not (adj.any(axis=0).all() and adj.any(axis=1).all()):
            continue
        n = len(adj)
        symbols = tuple(range(100, 100 + n))
        shift = ShiftModel(symbols, adj)
        for i, j in rng.integers(n, size=(200, 2)).tolist():
            assert shift.is_edge(symbols[i], symbols[j]) == adj[i, j]
        for length in range(1, 6):
            # walks along edges, some with one symbol replaced at random
            walk = [int(rng.integers(n))]
            while len(walk) < length:
                walk.append(int(rng.choice(np.flatnonzero(adj[walk[-1]]))))
            for word in (walk, [*walk[:-1], int(rng.integers(n))]):
                assert shift.is_admissible([symbols[i] for i in word]) == \
                    _dense_admissible(adj, word)
        for _ in range(5):
            idx = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            keep = [symbols[i] for i in idx]
            try:
                want = ShiftModel(tuple(keep), adj[np.ix_(idx, idx)])
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=str(exc)):
                    shift.restrict(keep)
            else:
                assert np.array_equal(shift.restrict(keep)._edges, want._edges)
        for length in range(1, 5):
            if count_admissible_words(shift, length) > 20_000:
                break
            for a in rng.choice(n, size=min(n, 3), replace=False).tolist():
                want = [w for w in admissible_words(shift, length)
                        if w[0] == symbols[a] and adj[w[-1] - 100, a]]
                assert periodic_points(shift, length, symbols[a]) == want


# -- configuration ---------------------------------------------------------


def test_shift_from_config_explicit():
    shift = shift_from_config({"alphabet": [0, 1],
                               "edges": [[0, 0], [0, 1], [1, 0]]})
    assert shift.symbols == (0, 1)
    assert shift.is_edge(0, 1) and not shift.is_edge(1, 1)


def test_shift_from_config_full_sugar():
    shift = shift_from_config({"alphabet": 3, "edges": "full"})
    assert all(shift.is_edge(a, b) for a in range(3) for b in range(3))


def test_shift_from_config_rule():
    shift = shift_from_config({"rule": "renewal", "truncation": 5})
    assert shift.symbols == (1, 2, 3, 4, 5)
    assert shift.is_edge(1, 5) and shift.is_edge(3, 2) and not shift.is_edge(3, 4)


def test_shift_from_config_errors():
    with pytest.raises(ValidationError, match="rule"):
        shift_from_config({"rule": "nope", "truncation": 3})
    with pytest.raises(ValidationError, match="rule"):
        shift_from_config({"rule": ["full"], "truncation": 3})
    with pytest.raises(ValidationError, match="truncation"):
        shift_from_config({"rule": "full"})
    with pytest.raises(ValidationError, match="alphabet"):
        shift_from_config({"edges": []})
    for bad in (True, 1.5, "x", 0):
        with pytest.raises(ValidationError, match="truncation"):
            shift_from_config({"rule": "full", "truncation": bad})
    for bad in (True, [[0], [1]], [0, 1.5], [True, 2], [0, None]):
        with pytest.raises(ValidationError, match="alphabet"):
            shift_from_config({"alphabet": bad, "edges": "full"})
    for bad in ([[0]], [[0, 1, 1]], [5], [[0, [1]]], [[0, 1.0]], "x", {"0": 1}):
        with pytest.raises(ValidationError, match="edges"):
            shift_from_config({"alphabet": [0, 1], "edges": bad})


def test_explicit_edge_lists_name_the_bad_edge():
    with pytest.raises(ValidationError, match=r"edge \(1, 2\) uses a symbol outside"):
        shift_from_config({"alphabet": [0, 1], "edges": [[0, 1], [1, 2], [3, 0]]})
    with pytest.raises(ValidationError, match=r"edge \('a', 0\) uses a symbol outside"):
        ShiftModel.from_edges([0, 1], iter([(0, 1), ("a", 0)]))
    with pytest.raises(ValidationError, match="pairs"):
        ShiftModel.from_edges([0, 1], [(0, 1), (1, 0, 1)])
    with pytest.raises(ValidationError, match="nonempty"):
        shift_from_config({"alphabet": [], "edges": []})
    with pytest.raises(ValidationError, match="nonempty"):
        shift_from_config({"alphabet": 0, "edges": "full"})
    with pytest.raises(ValidationError, match="zero row"):
        shift_from_config({"alphabet": [0, 1], "edges": []})
    with pytest.raises(ValidationError, match="duplicate"):
        shift_from_config({"alphabet": [0, 0], "edges": [[0, 0]]})


def test_explicit_edge_lists_match_the_per_edge_loop():
    # the codes are the sorted distinct index[a] * m + index[b], whatever the
    # order, repetition or container of the edges
    rng = random.Random(7)
    for m in (1, 2, 5, 40):
        symbols = rng.sample(range(-50, 50), m) + [f"s{i}" for i in range(m)]
        index = {s: i for i, s in enumerate(symbols)}
        cycle = [(symbols[i], symbols[(i + 1) % len(symbols)]) for i in range(len(symbols))]
        extra = [(rng.choice(symbols), rng.choice(symbols)) for _ in range(3 * m)]
        edges = cycle + extra + extra[:m]
        rng.shuffle(edges)
        want = sorted({index[a] * len(symbols) + index[b] for a, b in edges})
        for shift in (ShiftModel.from_edges(symbols, edges),
                      ShiftModel.from_edges(symbols, (e for e in edges)),
                      shift_from_config({"alphabet": symbols,
                                         "edges": [list(e) for e in edges]})):
            assert shift._edges.tolist() == want
    full = shift_from_config({"alphabet": ["a", 0, "b"], "edges": "full"})
    assert full._edges.tolist() == list(range(9)) and full.symbols == ("a", 0, "b")


def test_renewal_rule_edges():
    rule = RenewalRule()
    assert rule.edge(1, 9) and rule.edge(9, 8)
    assert not rule.edge(9, 9) and not rule.edge(5, 3)
    trunc = rule.truncate(4)
    assert trunc.symbols == (1, 2, 3, 4)
    # truncate evaluates edge on index grids; it must agree pair by pair
    for r in (rule, FullShiftRule()):
        adj = r.truncate(6).adjacency
        assert adj.tolist() == [[int(bool(r.edge(i, j))) for j in range(1, 7)]
                                for i in range(1, 7)]


class _ModThreeRule(AmbientRule):
    """A rule that defines only ``edge``: i -> j unless 3 divides i + j."""

    def edge(self, i, j):
        return (i + j) % 3 != 0


def _sorted_subsets(rng, count):
    """Truncations 1..N for N = 1..60, then ``count`` random ascending
    subsets of 1..top, with and without the symbol 1."""
    out = [np.arange(1, n + 1) for n in range(1, 61)]
    for _ in range(count):
        top = int(rng.integers(1, 90))
        size = int(rng.integers(1, top + 1))
        out.append(np.sort(rng.choice(np.arange(1, top + 1), size, replace=False)))
    return out


def test_edge_codes_match_the_grid_evaluation():
    rng = np.random.default_rng(22)
    for idx in _sorted_subsets(rng, 300):
        m = len(idx)
        for rule in (RenewalRule(), FullShiftRule(), _ModThreeRule()):
            got = rule.edge_codes(idx)
            # the base class's broadcast evaluation of ``edge`` is the reference
            want = AmbientRule.edge_codes(rule, idx)
            assert got.tolist() == want.tolist()
            pairs = [k * m + l for k in range(m) for l in range(m)
                     if rule.edge(int(idx[k]), int(idx[l]))]
            assert want.tolist() == pairs


def test_a_rule_with_only_edge_truncates_pair_by_pair():
    rule = _ModThreeRule()
    for n in range(1, 13):
        shift = rule.truncate(n)
        assert shift.symbols == tuple(range(1, n + 1))
        assert shift.ambient is rule and shift.assumed_mixing
        assert shift.adjacency.tolist() == [[int(rule.edge(i, j)) for j in range(1, n + 1)]
                                            for i in range(1, n + 1)]
        assert shift._edges.tolist() == np.flatnonzero(shift.adjacency).tolist()


def test_renewal_truncation_evaluates_no_grid(monkeypatch):
    i = np.arange(1, 1201)
    grid = RenewalRule().edge(i[:, None], i[None, :])

    def forbidden(self, i, j):
        raise AssertionError("edge evaluated")

    monkeypatch.setattr(RenewalRule, "edge", forbidden)
    shift = RenewalRule().truncate(1200)
    assert np.array_equal(shift.adjacency, grid.astype(np.uint8))
    assert len(shift._edges) == 2399
    assert shift.period == 1
    level = compact_approximation(RenewalRule(), 2).levels[-1]
    assert level.adjacency.tolist() == [[int(a == 1 or b == a - 1) for b in level.symbols]
                                        for a in level.symbols]


def test_routes_on_a_rule_truncation_build_no_matrix():
    # every route but the dense ones (the certificate's power walk, the
    # approximation's reachability tables) reads the edge codes, so the
    # m x m matrix is never built
    shift = RenewalRule().truncate(300)
    decay = DecayPotential("log", 2.0)
    cocycle = MatrixCocycle({s: [[1.0, 1.0], [1.0, 1.0 + 1.0 / s]]
                             for s in shift.symbols})
    transfer_pressure(shift, decay, 1.5)
    rpf_equilibrium(shift, decay, 1.5)
    pressure_curve(shift, decay, [1.5, 2.0])
    anneal(shift, decay, [1.5, 3.0], depth=3)
    gurevich_estimate(shift, decay, 1.5, 6)
    assert gurevich_estimate(shift, cocycle, 1.0, 4).n_used == 4
    assert periodic_points(shift, 3, 1) == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 3, 2)]
    assert shift.is_admissible((1, 3, 2, 1)) and not shift.is_admissible((2, 3))
    sub = shift.restrict(range(1, 11))
    assert "adjacency" not in vars(shift) and "adjacency" not in vars(sub)
    assert mixing_certificate(sub).mixing
    assert "adjacency" in vars(sub)
    assert not sub.adjacency.flags.writeable


def test_truncate_rejects_sizes_that_are_not_positive_integers():
    for rule in (RenewalRule(), FullShiftRule(), _ModThreeRule()):
        for bad in (True, False, 2.5, 2.0, "3", None, 0, -2, np.int64(0)):
            with pytest.raises(ValidationError, match="truncation size"):
                rule.truncate(bad)
        symbols = rule.truncate(np.int64(3)).symbols
        assert symbols == (1, 2, 3) and all(type(s) is int for s in symbols)


def test_oversized_shifts_are_refused_before_they_allocate(monkeypatch, capsys,
                                                          tmp_path):
    # the edge record is counted before any array or tuple of its symbols
    # exists: 2N - 1 edges on a renewal truncation, N**2 on a full shift or
    # on a rule that evaluates its N x N grid
    monkeypatch.setattr(shifts, "WORD_BUDGET", 1000)
    assert len(RenewalRule().truncate(500)._edges) == 999
    assert shift_from_config({"rule": "renewal", "truncation": 500}).n_symbols == 500
    assert FullShiftRule().truncate(31).n_symbols == 31
    refused = [lambda: RenewalRule().truncate(501),
               lambda: shift_from_config({"rule": "renewal", "truncation": 501}),
               lambda: FullShiftRule().truncate(32),
               lambda: _ModThreeRule().truncate(32),
               lambda: shift_from_config({"alphabet": 32, "edges": "full"}),
               lambda: shift_from_config({"alphabet": list(range(32)), "edges": "full"})]
    for call, count in zip(refused, [1001, 1001, 1024, 1024, 1024, 1024]):
        with pytest.raises(BudgetExceeded, match=f": {count} edges exceed budget 1000$"):
            call()
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"shift": {"rule": "renewal", "truncation": 1000000000}, '
                   '"potential": {"family": "decay", "law": "log", "coef": 2.0}, "t": 1.5}')
    assert cli.main(["pressure", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "1999999999 edges exceed budget 1000" in out.err


def test_an_integer_alphabet_with_too_few_edges_is_refused_before_it_is_built():
    # 200 000 symbols and one edge: an all-zero row, found from the counts
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="all-zero row"):
            shift_from_config({"alphabet": 200_000, "edges": [[0, 0]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(ValidationError, match="all-zero row"):
        shift_from_config({"alphabet": 3, "edges": [[0, 1], [1, 0]]})


# -- compact approximation -------------------------------------------------


def test_renewal_approximation_levels():
    approx = compact_approximation(RenewalRule(), 3)
    alphabets = [level.symbols for level in approx.levels]
    assert alphabets[0] == (1, 2, 3)
    assert alphabets[1] == tuple(range(1, 8))
    assert alphabets[2] == tuple(range(1, 16))
    assert approx.n_values == (2, 4, 8)
    # the first level is built from the seed pair (1, 1) alone
    assert approx.connectors[0] == {(1, 1): {"e": (2,), "c": (3, 2)}}
    assert approx.ambient_mixing_assumed


def test_approximation_levels_are_nested_and_mixing():
    approx = compact_approximation(RenewalRule(), 3)
    for small, big in zip(approx.levels, approx.levels[1:]):
        assert set(small.symbols) <= set(big.symbols)
        # every admissible word of the smaller level stays admissible
        for w in admissible_words(small, 3):
            assert big.is_admissible(w)
    for cert in approx.certificates:
        assert cert.mixing


def test_full_shift_approximation_first_level():
    approx = compact_approximation(FullShiftRule(), 1)
    assert approx.levels[0].symbols == (1, 2, 3)
    assert approx.connectors[0] == {(1, 1): {"e": (2,), "c": (1, 3)}}


def test_full_shift_approximation_sizes():
    approx = compact_approximation(FullShiftRule(), 3)
    assert tuple(len(level.symbols) for level in approx.levels) == (3, 21, 144)
    assert approx.n_values == (2, 2, 2)


def brute_interior(adj, start, end, length, fresh):
    """Smallest interior in lexicographic order, one with a fresh symbol first."""
    admissible = [w for w in itertools.product(range(len(adj)), repeat=length)
                  if all(adj[u][v] for u, v in zip((start, *w), (*w, end)))]
    with_fresh = [w for w in admissible if any(fresh[s] for s in w)]
    return (with_fresh or admissible or [None])[0]


def connector_interior(adj, start, end, length, fresh):
    """The connector search's interior for one pair: the fresh-preferring
    walk where a fresh completion exists, the plain batched one otherwise."""
    adj = np.array(adj, dtype=bool)
    adjf = adj.astype(np.float32)
    fresh = sum(1 << v for v, f in enumerate(fresh) if f)
    feas = _feasibility(adjf, [end], length)
    fresh_feas = _fresh_feasibility(adjf, feas, fresh)[0]
    if fresh_feas[length] >> start & 1:
        return tuple(_fresh_interior(_bit_rows(adj), _bit_rows(feas[0]), fresh_feas,
                                     start, length, fresh))
    if feas[0, length, start]:
        return tuple(_plain_interiors(adj, feas, np.array([start]), length)[0].tolist())
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.integers(0, n - 1), st.integers(0, n - 1))),
    st.integers(0, 4))
def test_connector_search_matches_enumeration(graph, length):
    adj, fresh, start, end = graph
    got = connector_interior(adj, start, end, length, fresh)
    assert got == brute_interior(adj, start, end, length, fresh)


def test_batched_walk_matches_enumeration_across_blocks(monkeypatch):
    # blocks of two pairs, so the walk crosses many block boundaries
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        monkeypatch.setattr(shifts, "_WALK_CELLS", 2 * n)
        adj = rng.random((n, n)) < 0.5
        starts = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        ends = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        length = int(rng.integers(0, 5))
        feas = _feasibility(adj.astype(np.float32), ends, length)
        words = _plain_interiors(adj, feas, starts, length)
        for i, a in enumerate(starts):
            for k, b in enumerate(ends):
                want = brute_interior(adj.tolist(), a, b, length, [False] * n)
                if want is not None:
                    assert tuple(words[i * len(ends) + k].tolist()) == want


def full_cap_thresholds(adjf, rows, cap):
    """Per pair of ``rows``, the smallest L with paths of every length in
    [L, cap], 0 without one of length cap: all cap powers, no early exit."""
    power = np.eye(len(adjf))[rows]
    holds = []
    for _ in range(cap):
        power = ((power @ adjf) > 0).astype(np.float64)
        holds.append(power[:, rows] > 0)
    best = np.zeros((len(rows), len(rows)), dtype=np.int64)
    every = np.ones_like(holds[0])
    for L in range(cap, 0, -1):
        every &= holds[L - 1]
        best[every] = L
    return best


def test_edge_thresholds_early_exit_matches_full_sweep():
    # cycles of 2 and 5 through 0: the seed block {0} holds at length 2 but
    # not at 3, so only the row of every vertex may end the loop
    two_five = ShiftModel.from_edges(range(6), [(0, 1), (1, 0), (0, 2), (2, 3),
                                                (3, 4), (4, 5), (5, 0)])
    graphs = [(two_five, [0], 30), (two_five, [0, 3], 30),
              (RenewalRule().truncate(60), [0, 4, 9], 28),
              (FullShiftRule().truncate(5), [2], 20)]
    rng = np.random.default_rng(11)
    while len(graphs) < 60:
        n = int(rng.integers(1, 9))
        adj = rng.random((n, n)) < rng.uniform(0.15, 0.6)
        if adj.any(axis=0).all() and adj.any(axis=1).all():
            rows = sorted(rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist())
            graphs.append((ShiftModel(tuple(range(n)), adj), rows, int(rng.integers(1, 25))))
    for shift, rows, cap in graphs:
        adjf = shift.adjacency.astype(np.float32)
        assert np.array_equal(_edge_thresholds(adjf, rows, cap),
                              full_cap_thresholds(adjf, rows, cap))


# -- equivalence oracle: the sequential per-pair connector search ----------


def reference_interior(succ, feas, fresh_feas, start, length, fresh):
    """One pair's greedy walk over successor lists: the smallest interior,
    one with a fresh symbol first where ``fresh_feas`` allows (None without
    any interior)."""
    need_fresh = fresh_feas[length][start]
    if not (need_fresh or feas[length][start]):
        return None
    word, v = [], start
    for r in range(length, 0, -1):
        reach, reach_fresh = feas[r - 1], fresh_feas[r - 1]
        for v in succ[v]:
            if reach[v] and (not need_fresh or fresh[v] or reach_fresh[v]):
                break
        need_fresh = need_fresh and not fresh[v]
        word.append(v)
    return tuple(word)


def reference_tables(adjf, end, length, fresh):
    """feas[r][v]: v, r more symbols, then ``end``; fresh_feas[r][v]: the
    same through at least one ``fresh`` symbol.  Lists of lists."""
    feas = [adjf[:, end] > 0]
    fresh_feas = [np.zeros(len(adjf), dtype=bool)]
    for _ in range(length):
        fresh_feas.append((adjf @ ((fresh & feas[-1]) | fresh_feas[-1])) > 0)
        feas.append((adjf @ feas[-1]) > 0)
    return [f.tolist() for f in feas], [f.tolist() for f in fresh_feas]


def reference_approximation(ambient, k_max, seed=None):
    """The compact approximation by one search per ordered seed pair and
    connector length, pairs in order, each seeing the symbols the ones before
    it used; thresholds from all ``cap`` powers; a countable level restricted
    from a truncation.  Returns the fields of the result and whether the
    fresh symbols ran out with pairs still to go."""
    rule = ambient if isinstance(ambient, AmbientRule) else None
    if rule is not None:
        seed = 1 if seed is None else seed
    else:
        seed = ambient.symbols[0 if seed is None else ambient.index(seed)]
    seeds, known = [seed], {seed}
    levels, n_values, connectors, certificates = [], [], [], []
    ran_out = False
    for _ in range(k_max):
        cap = 4 * len(seeds) + 16
        work = rule.truncate(2 * max(known) + cap + 2) if rule else ambient
        index = {s: i for i, s in enumerate(work.symbols)}
        adjf = work.adjacency.astype(np.float64)
        succ = [np.flatnonzero(row).tolist() for row in adjf]
        best = full_cap_thresholds(adjf, [index[s] for s in seeds], cap)
        assert best.all()
        n_k = max(2, int(best.max()) + 1)
        fresh = [s not in known for s in work.symbols]
        order = sorted(seeds, key=index.get)
        alphabet, level = set(seeds), {}
        tables = {}  # memo: the tables depend on the end and on ``known``
        for a in order:
            for b in order:
                found = {}
                for tag, length in (("e", n_k - 1), ("c", n_k)):
                    key = (b, len(known))
                    if key not in tables:
                        tables[key] = reference_tables(adjf, index[b], n_k,
                                                       np.array(fresh))
                    interior = reference_interior(succ, *tables[key], index[a],
                                                  length, fresh)
                    if interior is None:
                        raise ConstructionFailure(
                            f"no connector of interior length {length} for "
                            f"pair ({a!r}, {b!r})")
                    found[tag] = tuple(work.symbols[v] for v in interior)
                    for s in found[tag]:
                        if s not in known:
                            known.add(s)
                            fresh[index[s]] = False
                    alphabet.update(found[tag])
                    ran_out |= not any(fresh) and (a, b, tag) != (order[-1], order[-1], "c")
                level[(a, b)] = found
        symbols = sorted(alphabet)
        if rule is not None:
            model = rule.truncate(max(symbols)).restrict(symbols)
        else:
            model = ambient.restrict(symbols)
        levels.append(model)
        n_values.append(n_k)
        connectors.append(level)
        certificates.append(mixing_certificate(model))
        seeds = symbols
    return (_level_fields(levels), tuple(n_values), _connector_fields(connectors),
            _certificate_fields(certificates), rule is not None), ran_out


def _level_fields(levels):
    return [(lv.symbols, lv.adjacency.tolist(), lv.ambient, lv.assumed_mixing)
            for lv in levels]


def _connector_fields(connectors):
    # items() lists keep the dict order
    return [list(c.items()) for c in connectors]


def _certificate_fields(certificates):
    return [(c.status, c.primitive_exponent, list(c.thresholds.items()))
            for c in certificates]


def approximation_fields(approx):
    return (_level_fields(approx.levels), approx.n_values,
            _connector_fields(approx.connectors),
            _certificate_fields(approx.certificates), approx.ambient_mixing_assumed)


def random_mixing_ambients(count, rng):
    """Random primitive shifts of 1-8 symbols, in alphabet order, shuffled
    integers (index order differs from sorted order) and strings."""
    while count:
        n = int(rng.integers(1, 9))
        adj = rng.random((n, n)) < rng.uniform(0.2, 0.9)
        if not (adj.any(axis=0).all() and adj.any(axis=1).all()):
            continue
        symbols = [tuple(range(n)),
                   tuple(int(x) for x in rng.permutation(np.arange(10, 10 + 3 * n, 3))),
                   tuple(f"s{int(x)}" for x in rng.permutation(n))][count % 3]
        shift = ShiftModel(symbols, adj)
        if is_primitive(shift):
            seed = symbols[int(rng.integers(n))] if count % 2 else None
            yield shift, int(rng.integers(1, 5)), seed
            count -= 1


def test_connector_search_matches_sequential_reference_on_finite_ambients():
    ran_out = 0
    for ambient, k_max, seed in random_mixing_ambients(320, np.random.default_rng(2026)):
        want, exhausted = reference_approximation(ambient, k_max, seed)
        ran_out += exhausted
        assert approximation_fields(compact_approximation(ambient, k_max, seed)) == want
    assert ran_out >= 100  # fresh symbols ran out mid-level in most cases


@pytest.mark.parametrize("rule", [RenewalRule(), FullShiftRule()], ids=["renewal", "full"])
def test_connector_search_matches_sequential_reference_on_countable_rules(rule):
    for seed in range(1, 17):
        want, _ = reference_approximation(rule, 3, seed)
        for k in (1, 2, 3):
            approx = compact_approximation(rule, k, seed)
            assert approximation_fields(approx) == (
                want[0][:k], want[1][:k], want[2][:k], want[3][:k], want[4])
            assert all(level.ambient is rule for level in approx.levels)


@pytest.fixture
def fresh_search(monkeypatch):
    """Counts of the fresh-connector search: ends whose fresh table was
    built, and walks that gave an interior or were rejected (a stale table
    led them away from every fresh symbol)."""
    counts = {"tables": 0, "picks": 0, "rejected": 0}
    build, walk = shifts._fresh_feasibility, shifts._fresh_interior

    def counting_build(adjf, feas, fresh):
        counts["tables"] += len(feas)
        return build(adjf, feas, fresh)

    def counting_walk(*args):
        word = walk(*args)
        counts["picks" if word is not None else "rejected"] += 1
        return word

    monkeypatch.setattr(shifts, "_fresh_feasibility", counting_build)
    monkeypatch.setattr(shifts, "_fresh_interior", counting_walk)
    return counts


def assert_walk_certificates(approx):
    # each level's certificate, read off the power walk alone, is the one
    # the period-first public function gives
    for level, cert in zip(approx.levels, approx.certificates):
        want = mixing_certificate(level)
        assert (cert.status, cert.primitive_exponent) == (want.status,
                                                          want.primitive_exponent)
        assert np.array_equal(cert.lengths, want.lengths)


def random_sparse_ambients(count, rng):
    """Primitive shifts of 9-30 symbols: a cycle through every symbol and a
    few random edges, with every pair joined at each length from 20 edges
    on (the first level's depth bound)."""
    while count:
        n = int(rng.integers(9, 31))
        order = rng.permutation(n)
        edges = {(int(a), int(b)) for a, b in zip(order, np.roll(order, -1))}
        extra = rng.integers(0, n, (int(rng.integers(1, n)), 2))
        edges |= {(int(a), int(b)) for a, b in extra}
        shift = ShiftModel.from_edges(range(n), sorted(edges))
        if (mixing_certificate(shift).primitive_exponent or 99) <= 20:
            yield shift, int(rng.integers(1, 4))
            count -= 1


def test_connector_search_matches_sequential_reference_at_benchmark_sizes(fresh_search):
    # the benchmark's largest renewal task: tables go stale after every pick
    rule = RenewalRule()
    want, _ = reference_approximation(rule, 4, 1)
    approx = compact_approximation(rule, 4, 1)
    assert approximation_fields(approx) == want
    assert_walk_certificates(approx)
    # one table per end and level, and one more per rejected stale walk
    assert fresh_search["rejected"] >= 1
    ends = sum(len(level.symbols) for level in approx.levels[:-1]) + 1
    assert fresh_search["tables"] == ends + fresh_search["rejected"]


def test_full_shift_picks_outnumber_fresh_tables(fresh_search):
    # on the full shift a stale table keeps serving its end across picks
    for seed in (1, 6, 12):
        approx = compact_approximation(FullShiftRule(), 3, seed)
        assert [level.n_symbols for level in approx.levels] == [3, 21, 144]
        assert_walk_certificates(approx)
    assert fresh_search["tables"] < fresh_search["picks"]


def test_connector_search_matches_sequential_reference_on_sparse_ambients(fresh_search):
    stale = 0
    for ambient, k_max in random_sparse_ambients(30, np.random.default_rng(36)):
        before = fresh_search["rejected"]
        want, _ = reference_approximation(ambient, k_max)
        approx = compact_approximation(ambient, k_max)
        assert approximation_fields(approx) == want
        assert_walk_certificates(approx)
        stale += fresh_search["rejected"] > before
    assert stale >= 10  # a table went stale between picks in these cases


@pytest.mark.parametrize("level, status", [
    (ShiftModel.from_edges((1, 2), [(1, 2), (2, 1)]), "periodic"),
    (ShiftModel.from_edges((1, 2), [(1, 1), (1, 2), (2, 2)]), "reducible")])
def test_a_level_that_is_not_mixing_is_refused(monkeypatch, level, status):
    build = shifts._rule_model

    def level_model(rule, symbols, assumed_mixing):
        # the working truncation is built as before; the level is replaced
        return build(rule, symbols, assumed_mixing) if assumed_mixing else level

    monkeypatch.setattr(shifts, "_rule_model", level_model)
    with pytest.raises(ConstructionFailure, match=rf"is not mixing \({status}\)"):
        compact_approximation(RenewalRule(), 1)


def test_working_truncation_is_bounded_before_allocation(monkeypatch, capsys, tmp_path):
    def forbidden(self, n):
        raise AssertionError(f"truncate({n}) reached")

    monkeypatch.setattr(AmbientRule, "truncate", forbidden)
    # level 1 works in 2 * seed + 22 symbols: 1416**2 > WORD_BUDGET
    assert 1416 ** 2 > WORD_BUDGET >= 1414 ** 2
    with pytest.raises(BudgetExceeded, match="working truncation of 1416 symbols"):
        compact_approximation(RenewalRule(), 1, seed=697)
    cfg = tmp_path / "approx.json"
    cfg.write_text('{"ambient": {"rule": "full"}, "k_max": 2, "seed": 100000}')
    assert cli.main(["approx", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "working truncation of 200022 symbols" in out.err


def test_compact_approximation_builds_no_lists_or_threshold_dicts():
    # no adjacency-list builder is left to call
    assert not hasattr(shifts, "_grouped") and not hasattr(ShiftModel, "_succ")
    approx = compact_approximation(FullShiftRule(), 3)
    assert [level.n_symbols for level in approx.levels] == [3, 21, 144]
    assert all("thresholds" not in vars(cert) for cert in approx.certificates)
    # the dict is still built on request
    assert set(approx.certificates[-1].thresholds.values()) == {2}


def test_finite_ambient_approximation(golden_mean):
    approx = compact_approximation(golden_mean, 2)
    # the whole graph is reached quickly and stays fixed
    assert set(approx.levels[-1].symbols) == {0, 1}
    assert not approx.ambient_mixing_assumed


def test_approximation_rejects_non_mixing_ambient():
    two_cycle = ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])
    with pytest.raises(ValidationError, match="mixing"):
        compact_approximation(two_cycle, 2)


def test_approximation_names_the_ambient_status():
    two_cycle = ShiftModel.from_edges((0, 1), [(0, 1), (1, 0)])
    lower = ShiftModel.from_edges((0, 1), [(0, 0), (1, 0), (1, 1)])
    for ambient, status in ((two_cycle, "periodic"), (lower, "reducible")):
        with pytest.raises(ValidationError, match=f"must be mixing.*{status}"):
            compact_approximation(ambient, 1)


def test_restrict_keeps_ambient_edges(golden_mean):
    sub = golden_mean.restrict([0])
    assert sub.symbols == (0,)
    assert sub.is_edge(0, 0)
    with pytest.raises(ValidationError):
        golden_mean.restrict([0, 7])


def test_fingerprint_distinguishes_graphs(golden_mean, full2):
    assert golden_mean.fingerprint() != full2.fingerprint()
    again = ShiftModel.golden_mean()
    assert golden_mean.fingerprint() == again.fingerprint()


def test_fingerprints_agree_across_builders():
    # frozen values: a fingerprint names a graph in saved documents
    renewal = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 2)]
    for shift in (RenewalRule().truncate(3),
                  ShiftModel((1, 2, 3), [[1, 1, 1], [1, 0, 0], [0, 1, 0]]),
                  ShiftModel.from_edges((1, 2, 3), renewal[::-1]),
                  RenewalRule().truncate(6).restrict([1, 2, 3])):
        assert shift.fingerprint() == "78869cba2fdb8290"
    symbols = (0, "a", 1, "b")
    adj = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    wider = np.ones((6, 6), dtype=int)
    wider[:4, :4] = adj
    edges = [(symbols[i], symbols[j]) for i, j in zip(*np.nonzero(adj))]
    for shift in (ShiftModel(symbols, adj),
                  ShiftModel.from_edges(symbols, edges[::-1]),
                  ShiftModel(symbols + (2, "c"), wider).restrict(symbols)):
        assert shift.fingerprint() == "340c28657e34ab46"
    assert ShiftModel.full(40).fingerprint() == "49e8d11b253cf7bb"


@pytest.mark.parametrize("entry", [
    word_levels, admissible_words, count_admissible_words, compact_approximation,
    lambda shift, n: periodic_points(shift, n, 0)],
    ids=["word_levels", "admissible_words", "count_admissible_words",
         "compact_approximation", "periodic_points"])
def test_lengths_must_be_positive_integers(golden_mean, entry):
    for bad in (2.5, 2.0, True, False, "3", None, 0, -2, np.int64(0)):
        with pytest.raises(ValidationError, match="must be a positive integer"):
            entry(golden_mean, bad)
    entry(golden_mean, np.int64(2))
