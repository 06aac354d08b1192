"""Cycle enumeration, maximum cycle means and the cold-limit report."""

import itertools
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (BudgetExceeded, DecayPotential, LocallyConstant,
                         MatrixCocycle, RenewalRule, ShiftModel,
                         UnsupportedEnumeration, ValidationError, admissible_words, anneal,
                         max_mean_cycle, maximizing_subshift, rpf_equilibrium,
                         simple_cycles, word_levels, zero_temp_report)
from thermoshift import shifts, zerotemp
from thermoshift.cli import main


def karp_beta(shift, g):
    """Maximum cycle mean by Karp's recurrence (dense, O(n^3)): an oracle
    for Howard's beta that never builds the block operator.  ``d[k, v]`` is
    the heaviest k-edge walk ending at v from any start; every vertex has a
    predecessor, so each entry is finite."""
    n = shift.n_symbols
    adj = shift.adjacency.astype(bool)
    gv = np.asarray(g, dtype=np.float64)
    d = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        d[k] = np.where(adj, (d[k - 1] + gv)[:, None], -np.inf).max(axis=0)
    return float(((d[n] - d[:n]) / (n - np.arange(n))[:, None]).min(axis=0).max())


def brute_cycles(shift):
    """Independent simple-cycle enumeration: DFS anchored at the smallest
    vertex of each cycle."""
    out = []
    syms = shift.symbols
    for start in syms:
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            for w in shift.successors(v):
                if w == start:
                    out.append(path)
                elif w > start and w not in path:
                    stack.append((w, path + (w,)))
    return sorted(out, key=lambda c: (len(c), c))


def brute_subshift(shift, vals):
    """Maximizing sub-shift from every simple cycle of the whole graph:
    (beta, symbols, edges, entropy, cycles)."""
    means = [(math.fsum(vals[s] for s in c) / len(c), c)
             for c in brute_cycles(shift)]
    beta = max(m for m, _ in means)
    keep = tuple(c for m, c in means if m >= beta - 1e-9)
    symbols = tuple(sorted({s for c in keep for s in c}))
    edges = tuple(sorted({(a, b) for c in keep
                          for a, b in zip(c, c[1:] + c[:1])}))
    adj = np.zeros((len(symbols), len(symbols)))
    for a, b in edges:
        adj[symbols.index(a), symbols.index(b)] = 1.0
    return beta, symbols, edges, math.log(max(abs(np.linalg.eigvals(adj)))), keep


def brute_classes(symbols, edges):
    """Strongly connected classes of a graph, by boolean transitive
    closure: each class as a frozenset of symbols."""
    n = len(symbols)
    reach = np.eye(n, dtype=bool)
    for a, b in edges:
        reach[symbols.index(a), symbols.index(b)] = True
    for k in range(n):                              # Warshall
        reach |= reach[:, [k]] & reach[[k], :]
    both = reach & reach.T
    return {frozenset(symbols[j] for j in np.flatnonzero(row)) for row in both}


def assert_brute_subshift(sub, shift, vals):
    beta, symbols, edges, entropy, keep = brute_subshift(shift, vals)
    assert (sub.beta, sub.symbols, sub.edges) == (beta, symbols, edges)
    assert sub.entropy == pytest.approx(entropy, abs=1e-12)
    # one cycle per class of the union graph, each a cycle brute force keeps
    classes = brute_classes(symbols, edges)
    assert set(sub.cycles) <= set(keep)
    assert len(sub.cycles) == len(classes)
    assert {next(k for k in classes if c[0] in k) for c in sub.cycles} == classes
    assert list(sub.cycles) == sorted(sub.cycles, key=lambda c: (len(c), c))


def ten_vertex_graph():
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(0, 5), (3, 0), (7, 2), (4, 4)]
    shift = ShiftModel.from_edges(tuple(range(10)), edges)
    return shift, {i: math.sin(3.7 * i + 0.4) for i in range(10)}


def test_simple_cycles_small_graphs(golden_mean, full2):
    assert simple_cycles(golden_mean) == [(0,), (0, 1)]
    assert simple_cycles(full2) == [(0,), (1,), (0, 1)]


def test_simple_cycles_complete_three():
    k3 = ShiftModel.full(3)
    cycles = simple_cycles(k3)
    assert len(cycles) == 8
    assert {len(c) for c in cycles} == {1, 2, 3}
    # each cycle is rotated to start at its smallest vertex
    assert all(c[0] == min(c) for c in cycles)
    assert cycles == sorted(cycles, key=lambda c: (len(c), c))
    assert cycles == brute_cycles(k3)


def test_simple_cycles_capped():
    big = ShiftModel.full(9)
    with pytest.raises(UnsupportedEnumeration):
        simple_cycles(big)


def test_max_mean_cycle_golden_mean(golden_mean):
    out = max_mean_cycle(golden_mean, LocallyConstant({0: -1.0, 1: 0.0}))
    assert out.beta == pytest.approx(-0.5)
    assert out.cycle == (0, 1)
    assert out.method == "howard"


def test_max_mean_cycle_prefers_short_cycles_on_ties(full2):
    out = max_mean_cycle(full2, LocallyConstant({0: 0.0, 1: 0.0}))
    assert out.beta == 0.0
    assert out.cycle == (0,)


def test_karp_route_on_ten_vertices():
    shift, vals = ten_vertex_graph()
    pot = LocallyConstant(vals)
    out = max_mean_cycle(shift, pot)
    assert out.method == "howard"
    best = max(math.fsum(vals[s] for s in c) / len(c)
               for c in brute_cycles(shift))
    assert out.beta == pytest.approx(best, abs=1e-12)
    cyc_mean = math.fsum(vals[s] for s in out.cycle) / len(out.cycle)
    assert cyc_mean == pytest.approx(out.beta, abs=1e-12)


def random_graph(rng, n, ring):
    """Random edges on n vertices.  With ``ring`` a cycle through every
    vertex keeps the graph irreducible; without it a vertex left with no
    edge in or out only gets one random edge, so the graph is often
    reducible."""
    edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3}
    if ring:
        edges |= {(i, (i + 1) % n) for i in range(n)}
    for v in range(n):
        if not any(a == v for a, _ in edges):
            edges.add((v, rng.randrange(n)))
        if not any(b == v for _, b in edges):
            edges.add((rng.randrange(n), v))
    return ShiftModel.from_edges(tuple(range(n)), sorted(edges))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans(), st.booleans())
def test_karp_matches_exhaustive_on_random_graphs(seed, ring, tied):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    shift = random_graph(rng, n, ring)
    # a {-1, 0, 1} table ties many cycle means exactly
    vals = {i: float(rng.randint(-1, 1)) if tied else rng.uniform(-3, 3)
            for i in range(n)}
    cycles = brute_cycles(shift)
    best = max(math.fsum(vals[s] for s in c) / len(c) for c in cycles)
    assert karp_beta(shift, [vals[s] for s in shift.symbols]) == pytest.approx(
        best, abs=1e-9)
    pot = LocallyConstant(vals)
    out = max_mean_cycle(shift, pot)
    assert out.beta == pytest.approx(best, abs=1e-9)
    assert out.cycle in cycles
    assert math.fsum(vals[s] for s in out.cycle) / len(out.cycle) == pytest.approx(
        best, abs=1e-9)
    assert_brute_subshift(maximizing_subshift(shift, pot), shift, vals)


def test_vertex_weights_need_additive_depth_one(full2):
    coc = MatrixCocycle({0: [[1, 1], [1, 1]], 1: [[1, 1], [1, 1]]})
    with pytest.raises(ValidationError):
        max_mean_cycle(full2, coc)
    deep = LocallyConstant({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0,
                            (1, 1): 0.0}, depth=2)
    with pytest.raises(ValidationError):
        maximizing_subshift(full2, deep)


# -- maximizing sub-shifts -------------------------------------------------


def test_subshift_single_loop(full2, bernoulli):
    sub = maximizing_subshift(full2, bernoulli)
    assert sub.beta == 0.0
    assert sub.symbols == (0,)
    assert sub.edges == ((0, 0),)
    assert sub.entropy == 0.0
    assert sub.admits((0, 0, 0))
    assert not sub.admits((0, 1))


def test_subshift_constant_potential_is_everything(full2):
    sub = maximizing_subshift(full2, LocallyConstant({0: -0.3, 1: -0.3}))
    assert sub.symbols == (0, 1)
    assert len(sub.edges) == 4
    assert sub.entropy == pytest.approx(math.log(2), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10 ** 9), st.booleans())
def test_subshift_matches_brute_force(n, seed, integer):
    rng = random.Random(seed)
    p = rng.choice([0.2, 0.4, 0.7])
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {(i, j) for i in range(n) for j in range(n) if rng.random() < p}
    shift = ShiftModel.from_edges(tuple(range(n)), sorted(edges))
    # integer tables give exact ties between cycle means
    vals = {i: float(rng.randint(-2, 1)) if integer
            else round(rng.uniform(-1, 1), 6) for i in range(n)}
    sub = maximizing_subshift(shift, LocallyConstant(vals))
    assert_brute_subshift(sub, shift, vals)


def test_admits_matches_the_edge_list_on_every_word():
    shift, vals = ten_vertex_graph()
    sub = maximizing_subshift(shift, LocallyConstant(vals))
    for w in itertools.product(shift.symbols, repeat=3):
        want = (all(s in sub.symbols for s in w)
                and all((a, b) in sub.edges for a, b in zip(w, w[1:])))
        assert sub.admits(w) == want, w
    assert sub.admits(sub.cycles[0]) and not sub.admits((10,))


def test_subshift_on_ten_vertices():
    # the whole graph is past the cycle cap; its maximizing set is not
    shift, vals = ten_vertex_graph()
    pot = LocallyConstant(vals)
    sub = maximizing_subshift(shift, pot)
    assert_brute_subshift(sub, shift, vals)
    rep = zero_temp_report(shift, pot, [1.0, 2.0], depth=2)
    assert rep.subshift == sub and rep.beta == sub.beta


def test_subshift_survives_a_stranded_critical_edge():
    # the 3-cycle's mean is beta - 2.7e-9: its reduced weights are 0 on
    # 1 -> 2 and 2 -> 0 and -8e-9 on 0 -> 1, so the per-edge threshold drops
    # 0 -> 1 and strands the other two, which lie on no critical cycle
    shift = ShiftModel.from_edges(
        (0, 1, 2, 3), [(0, 1), (1, 2), (2, 0), (3, 3), (0, 3), (3, 0)])
    vals = {0: -0.12494864769238608, 1: -0.2921939328002608,
            2: 0.41714257249264686, 3: 0.0}
    sub = maximizing_subshift(shift, LocallyConstant(vals))
    assert sub.symbols == (3,)
    assert_brute_subshift(sub, shift, vals)


def test_subshift_keeps_its_cycle_at_a_large_scale():
    # at weights of ~1e9 the reduced weight of the edge that closes the
    # 2-cycle rounds to about -1e-7, past the 1e-9 margin; the margin grows
    # to the rounding of the potential, so the cycle stays
    shift = ShiftModel.from_edges((0, 1, 2), [(0, 1), (0, 2), (1, 2), (2, 0)])
    vals = {0: 732052963.0131123, 1: -669323228.050706, 2: 824761548.7030984}
    sub = maximizing_subshift(shift, LocallyConstant(vals))
    assert sub.cycles == ((0, 2),)
    assert_brute_subshift(sub, shift, vals)


def test_subshift_drops_a_tight_path_off_every_cycle():
    # loops at 0 and 8 joined by the tight path 0 -> 1 -> ... -> 7 -> 8, which
    # returns only through the cheap symbol 9: every symbol but 9 has a tight
    # edge in and out, yet only the loops lie on a cycle of tight edges
    edges = [(0, 0), (8, 8), (8, 9), (9, 0)] + [(i, i + 1) for i in range(8)]
    shift = ShiftModel.from_edges(tuple(range(10)), edges)
    vals = {**{i: 1.0 for i in range(9)}, 9: 0.0}
    sub = maximizing_subshift(shift, LocallyConstant(vals))
    assert sub.symbols == (0, 8)
    assert sub.cycles == ((0,), (8,))
    assert_brute_subshift(sub, shift, vals)


def test_subshift_on_two_tied_loops():
    # a -> a, a -> b -> c -> d, d -> d, d -> e -> a with a = d = 1, else 0
    shift = ShiftModel.from_edges(
        tuple("abcde"), [("a", "a"), ("a", "b"), ("b", "c"), ("c", "d"),
                         ("d", "d"), ("d", "e"), ("e", "a")])
    vals = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, "e": 0.0}
    sub = maximizing_subshift(shift, LocallyConstant(vals))
    assert sub.cycles == (("a",), ("d",))
    assert_brute_subshift(sub, shift, vals)
    assert max_mean_cycle(shift, LocallyConstant(vals)).cycle == ("a",)


def test_subshift_on_the_renewal_truncation_at_1200():
    # the chain 1200 -> ... -> 2 -> 1 is tight all the way down but lies on
    # no tight cycle; the fixed point at 1 (f = 0 there) is the only one
    shift = RenewalRule().truncate(1200)
    pot = DecayPotential("log", 2)
    sub = maximizing_subshift(shift, pot)
    assert sub.beta == 0.0
    assert sub.symbols == (1,)
    assert sub.cycles == ((1,),)
    assert max_mean_cycle(shift, pot) == zerotemp.MaxMeanCycle(0.0, (1,), "howard")
    # a constant potential keeps the whole truncation: one class of entropy
    # log 2 up to the 2^-1200 of the missing tail
    whole = maximizing_subshift(shift, DecayPotential("log", 0))
    assert len(whole.symbols) == 1200 and whole.cycles == ((1,),)
    assert whole.entropy == pytest.approx(math.log(2), abs=1e-12)


def test_subshift_two_cycle(golden_mean):
    sub = maximizing_subshift(golden_mean, LocallyConstant({0: -1.0, 1: 0.0}))
    assert sub.beta == pytest.approx(-0.5)
    assert sub.edges == ((0, 1), (1, 0))
    assert sub.entropy == pytest.approx(0.0, abs=1e-12)
    assert sub.admits((0, 1, 0, 1))
    assert not sub.admits((0, 0))


# -- annealing and the cold-limit report -----------------------------------


def test_anneal_sorts_and_clusters(full2, bernoulli):
    tr = anneal(full2, bernoulli, [1, 2, 3, 5, 8, 10], depth=6, delta=1e-4)
    assert [r.t for r in tr.rows] == [10.0, 8.0, 5.0, 3.0, 2.0, 1.0]
    assert tr.clusters == ((10.0,), (8.0,), (5.0,), (3.0,), (2.0,), (1.0,))
    coarse = anneal(full2, bernoulli, [1, 2, 3, 5, 8, 10], depth=6, delta=0.05)
    assert coarse.clusters == ((10.0, 8.0, 5.0), (3.0,), (2.0,), (1.0,))
    with pytest.raises(ValidationError):
        anneal(full2, bernoulli, [])


def reference_anneal(shift, pot, ts, depth, delta):
    """The dict route anneal took before it read engine rows: each marginal
    is ``as_cylinder_measure(depth).weights`` and the gap to a cluster's
    representative is taken over the union of the two supports."""
    def gap(a, b):
        return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))

    rows = []
    for t in sorted({float(t) for t in ts}, reverse=True):
        eq = rpf_equilibrium(shift, pot, t)
        rows.append((t, eq.pressure, eq.lyapunov_exact(), eq.entropy(),
                     eq.as_cylinder_measure(depth).weights))
    clusters, current = [], [rows[0]]
    for row in rows[1:]:
        if gap(current[0][4], row[4]) <= delta:
            current.append(row)
        else:
            clusters.append(tuple(r[0] for r in current))
            current = [row]
    clusters.append(tuple(r[0] for r in current))
    return rows, tuple(clusters)


@pytest.mark.parametrize("seed", range(8))
def test_anneal_matches_the_dict_reference_bit_for_bit(seed):
    rng = random.Random(seed)
    shift = random_graph(rng, rng.randint(2, 5), ring=True)
    shift = ShiftModel(shift.symbols, np.maximum(shift.adjacency, np.eye(
        shift.n_symbols, dtype=np.uint8)))           # loops make it primitive
    pot = LocallyConstant({s: rng.uniform(-3.0, 0.0) for s in shift.symbols})
    # t = 400 is cold enough that depth-4 masses underflow to 0, so the
    # rows' supports differ and dict and array gaps cover different words
    ts = [1.0, 2.0, 3.0, 30.0, 400.0]
    delta = rng.choice([0.0, 1e-4, 0.05])
    tr = anneal(shift, pot, ts, depth=4, delta=delta)
    rows, clusters = reference_anneal(shift, pot, ts, 4, delta)
    assert len({len(r.marginal) for r in tr.rows}) > 1
    assert tr.clusters == clusters
    for got, (t, p, lyap, h, marginal) in zip(tr.rows, rows, strict=True):
        assert (got.t, got.pressure, got.lyapunov, got.entropy) == (t, p, lyap, h)
        assert list(got.marginal.items()) == list(marginal.items())


@pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf])
def test_anneal_rejects_a_bad_delta_before_solving(monkeypatch, full2,
                                                   bernoulli, delta):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved before validation")

    monkeypatch.setattr(zerotemp, "_spectral_block", forbidden)
    monkeypatch.setattr(zerotemp, "_equilibrium", forbidden)
    with pytest.raises(ValidationError, match="delta"):
        anneal(full2, bernoulli, [1.0, 2.0], delta=delta)


def test_anneal_enumerates_its_level_under_the_word_budget(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved before the level was enumerated")

    monkeypatch.setattr(zerotemp, "_spectral_block", forbidden)
    monkeypatch.setattr(zerotemp, "_equilibrium", forbidden)
    shift = ShiftModel.full(9)
    pot = LocallyConstant({s: -0.1 * s for s in shift.symbols})
    # the 9^7 words of length 7 exceed the budget; levels 1..6 take ~25 MB
    with pytest.raises(BudgetExceeded, match="at length 7"):
        anneal(shift, pot, [1.0], depth=8)


def spy_on(monkeypatch, module, name):
    """Calls of ``module.name`` from here on, recorded as their arguments."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def spy_on_words(monkeypatch, n):
    """Spellings of words of length ``n`` from here on (the equilibria
    spell their block states, the 1-words of a depth-1 potential)."""
    calls = spy_on(monkeypatch, shifts, "_symbol_tuples")
    return lambda: [words for _, words in calls if words.shape[1] == n]


def test_marginals_spell_the_level_once_when_read(monkeypatch, full2, bernoulli):
    want = admissible_words(full2, 3)
    spelled = spy_on_words(monkeypatch, 3)
    tr = anneal(full2, bernoulli, [1.0, 2.0, 5.0], depth=3)
    assert spelled() == []
    for row in tr.rows:
        assert list(row.marginal.values()) == row.masses.tolist()
    assert len(spelled()) == 1
    assert list(tr.rows[0].marginal) == want
    assert len(spelled()) == 1


def test_anneal_rows_compare_equal_across_runs(full2, bernoulli):
    # rows compare by t, pressure, Lyapunov exponent and entropy; the mass
    # array and the shared level are left out, so == never meets an ndarray
    one = anneal(full2, bernoulli, [1.0, 2.0], depth=3)
    two = anneal(full2, bernoulli, [1.0, 2.0], depth=3)
    assert (one.rows == two.rows) is True
    assert one == two
    assert one.rows[0] != one.rows[1]


def test_traces_and_reports_pickle_with_their_marginals(full2, bernoulli):
    rep = zero_temp_report(full2, bernoulli, [1.0, 4.0], depth=3)
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep
    for got, row in zip(back.trace.rows, rep.trace.rows, strict=True):
        assert list(got.marginal.items()) == list(row.marginal.items())


def test_cold_report_reads_the_public_anneal_and_spells_no_word(monkeypatch):
    annealed = spy_on(monkeypatch, zerotemp, "anneal")
    spelled = spy_on_words(monkeypatch, 4)
    spelled_cli = spy_on_words(monkeypatch, 6)
    pot = LocallyConstant({0: 0.0, 1: -1.0})
    rep = zero_temp_report(ShiftModel.full(2), pot, [2.0, 4.0], depth=4)
    assert len(annealed) == 1
    assert annealed[0][2] == [2.0, 4.0]
    assert rep.trace.rows[0].t == 4.0
    config = Path(__file__).resolve().parents[1] / "configs" / "zerotemp_full2.json"
    assert main(["zerotemp", "--config", str(config)]) == 0
    assert len(annealed) == 2
    assert spelled() == spelled_cli() == []


def test_cold_report_closed_forms(full2, bernoulli):
    rep = zero_temp_report(full2, bernoulli, [1, 2, 5, 10], depth=6)
    q = math.exp(-10) / (1 + math.exp(-10))
    assert rep.beta == 0.0
    assert rep.t_max == 10.0
    assert rep.lyapunov_gap == pytest.approx(q, abs=1e-13)
    h10 = math.log(1 + math.exp(-10)) + 10 * q
    assert rep.entropy_gap == pytest.approx(h10, abs=1e-13)
    assert rep.leakage == pytest.approx(1 - (1 + math.exp(-10)) ** -6,
                                        abs=1e-13)
    assert rep.leak_ok


def test_cold_report_on_the_full_nine_shift():
    # a constant potential makes every cycle maximizing: the sub-shift is
    # the whole shift, one class, whatever the alphabet size
    shift = ShiftModel.full(9)
    pot = LocallyConstant({s: -0.1 for s in shift.symbols})
    rep = zero_temp_report(shift, pot, [1.0, 2.0], depth=2)
    sub = rep.subshift
    assert sub.symbols == shift.symbols and len(sub.edges) == 81
    assert sub.entropy == pytest.approx(math.log(9), abs=1e-12)
    assert sub.cycles == ((0,),)
    assert rep.leakage == 0.0


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("constant", [False, True])
def test_leakage_is_the_mass_of_the_words_not_admitted(seed, constant):
    # the row test on the level's pointers agrees with ``admits`` word by
    # word, and the leakage is the fsum of the same floats; a constant
    # potential makes the whole graph the sub-shift
    rng = random.Random(seed)
    shift = random_graph(rng, rng.randint(2, 6), ring=True)
    shift = ShiftModel(shift.symbols, np.maximum(shift.adjacency, np.eye(
        shift.n_symbols, dtype=np.uint8)))           # loops make it primitive
    pot = LocallyConstant({s: 0.0 if constant else rng.uniform(-1.0, 1.0)
                           for s in shift.symbols})
    depth = rng.randint(1, 4)
    rep = zero_temp_report(shift, pot, [1.0, 8.0], depth=depth)
    sub = rep.subshift
    levels = word_levels(shift, depth)
    words = admissible_words(shift, depth)
    assert zerotemp._admitted(shift, sub, levels).tolist() == [
        sub.admits(w) for w in words]
    assert rep.leakage == math.fsum(
        v for w, v in rep.trace.rows[0].marginal.items() if not sub.admits(w))


def test_cold_report_rejects_a_deep_table_before_the_block(monkeypatch, full2):
    def forbidden(*args, **kwargs):
        raise AssertionError("block built before validation")

    monkeypatch.setattr(zerotemp, "_spectral_block", forbidden)
    deep = LocallyConstant({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0,
                            (1, 1): 0.0}, depth=2)
    with pytest.raises(ValidationError, match="depth 1"):
        zero_temp_report(full2, deep, [1.0, 2.0], depth=2)


def test_no_route_enumerates_cycles(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("simple cycles enumerated")

    monkeypatch.setattr(zerotemp, "simple_cycles", forbidden)
    shift, vals = ten_vertex_graph()
    pot = LocallyConstant(vals)
    sub = maximizing_subshift(shift, pot)
    assert zero_temp_report(shift, pot, [1.0, 2.0], depth=2).subshift == sub
