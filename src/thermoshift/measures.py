"""Cylinder measures, Gibbs constructions and equilibrium statistics.

A :class:`CylinderMeasure` holds its mass on depth-n cylinders as arrays:
the words as rows of symbol indices and their normalised masses.  Three
sources:

* "sup-weight" — mass proportional to exp(t sup f_n|[w]);
* "cesaro" — a sup-weight measure pushed through an orbit average, the
  constructive route to an invariant limit;
* "spectral" — the stationary Markov chain from the Perron eigendata of
  the Bellman-scaled block operator (exact equilibrium for the additive
  families, those with a finite ``depth``, at any t), held as transition
  edge arrays with the f_1 value of every block state.

The estimators (entropy, Lyapunov exponent, Gibbs certificate) read a
measure through ``level_masses(levels)``: the mass of every row of each
level of the word-level engine (:func:`~thermoshift.shifts.word_levels`,
``(last, parent, suffix)`` triples), one array per level, as
``Potential.level_extrema`` gives the potential.  Both measure types
provide it, and ``mass(word)`` remains the per-word query.  A measure
built on engine levels keeps them: the estimators scan its own levels and
read its level masses, computed once, instead of enumerating the words
again.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (ConditionNotMet, NumericalError, ValidationError)
from .linalg import _exp, _log, dominant_pair
from .potentials import DecayPotential, Potential
from .pressure import _spectral_block
from .shifts import (ShiftModel, _check_positive_int, _locate, _symbol_order,
                     _symbol_tuples, _window, _words, word_levels)


class CylinderMeasure:
    """A probability vector on depth-``depth`` cylinders.

    The support is held as arrays in insertion order: ``rows`` holds one
    word per row as symbol indices (positions in ``shift.symbols``) and
    ``masses`` its normalised mass.  When the measure was built on engine
    levels, ``_engine`` is the list of them (levels 1..depth of
    :func:`word_levels`) and ``_at`` each row's position in the last; else
    both are ``None``.  Measures compare by identity."""

    def __init__(self, shift: ShiftModel, depth: int, rows: np.ndarray,
                 masses: np.ndarray, source: str = "raw"):
        self.shift, self.depth, self.rows, self.masses = shift, depth, rows, masses
        self.source, self._at, self._engine, self._levels = source, None, None, {}

    @classmethod
    def from_weights(cls, shift: ShiftModel, depth: int, weights: Mapping,
                     source: str = "raw") -> "CylinderMeasure":
        # The keys are checked in order, each for length, admissibility and
        # mass; the edges of the keys read before the first other fault are
        # looked up at once, so a key with a missing edge still comes first.
        words, rows, clean, fault = [], [], {}, None
        try:
            for w, v in weights.items():
                w = tuple(w)
                if len(w) != depth:
                    raise ValidationError(f"weight key {w!r} has length != {depth}")
                try:
                    rows.append([shift.index(s) for s in w])
                except ValidationError:
                    raise ValidationError(f"weight on inadmissible word {w!r}") from None
                words.append(w)
                v = float(v)
                if v < 0:
                    raise ValidationError(f"negative mass on {w!r}")
                if v > 0:
                    clean[w] = v, len(rows) - 1
        except (ValidationError, TypeError, ValueError) as exc:
            fault = exc
        rows = np.array(rows, dtype=np.intp).reshape(len(rows), depth)
        m = shift.n_symbols
        ok = shift._has_edges(rows[:, :-1] * m + rows[:, 1:]).all(axis=1)
        if not ok.all():
            w = words[np.argmin(ok)]
            raise ValidationError(f"weight on inadmissible word {w!r}")
        if fault is not None:
            raise fault
        at = [i for _, i in clean.values()]
        return cls._normalised(shift, rows[at],
                               np.array([v for v, _ in clean.values()]), source)

    @classmethod
    def _from_level(cls, shift: ShiftModel, levels: list,
                    weights: np.ndarray, source: str) -> "CylinderMeasure":
        """The measure with nonnegative ``weights`` on the rows of the last
        of ``levels`` (engine levels 1..depth, which it keeps); its words
        are admissible by construction, so they skip the checks of
        :meth:`from_weights`."""
        at = np.flatnonzero(weights > 0)
        return cls._normalised(shift, _words(levels, at), weights[at], source,
                               at, levels)

    @classmethod
    def _normalised(cls, shift, rows, masses, source, at=None,
                    levels=None) -> "CylinderMeasure":
        total = _running_sum(masses)
        if total <= 0:
            raise ValidationError("measure has no mass")
        measure = cls(shift, rows.shape[1], rows, masses / total, source)
        measure._at, measure._engine = at, levels
        return measure

    @cached_property
    def weights(self) -> dict:
        """The support as ``{word: mass}``, words as symbol tuples."""
        return dict(zip(_symbol_tuples(self.shift.symbols, self.rows),
                        self.masses.tolist()))

    def total(self) -> float:
        return math.fsum(self.masses.tolist())

    def level_masses(self, levels: list) -> list[np.ndarray]:
        """Mass of every row of each engine level of this measure's shift,
        one array per level as :meth:`Potential.level_extrema` returns them.
        Each support row is mapped to its level-n ancestor and the masses
        are added in insertion order, the order of :meth:`level`.  A measure
        on engine rows reads the prefix of its own level masses (read-only
        arrays, computed once); other rows are located by walk."""
        top = len(levels)
        self._require_depth(top)
        if self._engine is not None:
            return self._engine_masses[:top]
        at = _locate(self.shift, levels, self.rows[:, :top])
        return _ancestor_masses(levels, at, self.masses)

    @cached_property
    def _engine_masses(self) -> list[np.ndarray]:
        out = _ancestor_masses(self._engine, self._at, self.masses)
        for mu in out:
            mu.flags.writeable = False
        return out

    def level(self, k: int) -> dict:
        """Depth-k marginal, 1 <= k <= depth."""
        if not 1 <= k <= self.depth:
            raise ValidationError(f"marginal depth {k} outside 1..{self.depth}")
        if k == self.depth:
            return self.weights
        if k not in self._levels:
            # the masses of each distinct prefix, added in insertion order
            keys, inverse = np.unique(self.rows[:, :k], axis=0,
                                      return_inverse=True)
            acc = np.bincount(inverse.ravel(), self.masses, minlength=len(keys))
            self._levels[k] = dict(zip(_symbol_tuples(self.shift.symbols, keys),
                                       acc.tolist()))
        return self._levels[k]

    def mass(self, word) -> float:
        word = tuple(word)
        if len(word) == 0:
            return self.total()
        self._require_depth(len(word))
        return self.level(len(word)).get(word, 0.0)

    def marginal_vector(self, k: int = 1) -> dict:
        items = sorted(self.level(k).items(),
                       key=lambda item: [_symbol_order(s) for s in item[0]])
        if k == 1:
            return {w[0]: v for w, v in items}
        return dict(items)

    def invariance_defect(self) -> float:
        """max over (depth-1)-cylinders of |mu(preimage) - mu(cylinder)|,
        the (depth-1)-words keyed by their engine rows (``parent`` and
        ``suffix``) where the measure has them, else by value."""
        if self.depth < 2:
            return 0.0
        n = len(self.masses)
        if self._engine is None:
            key = np.unique(np.concatenate([self.rows[:, :-1], self.rows[:, 1:]]),
                            axis=0, return_inverse=True)[1].ravel()
        else:
            key = np.concatenate([self._engine[-1].parent[self._at],
                                  self._engine[-1].suffix[self._at]])
        bins = int(key.max()) + 1
        short = np.bincount(key[:n], self.masses, minlength=bins)
        pre = np.bincount(key[n:], self.masses, minlength=bins)
        return float(np.abs(pre - short).max())

    def _require_depth(self, n: int) -> None:
        if n > self.depth:
            raise ValidationError(
                f"cylinder of length {n} not determined at depth {self.depth}")

    def _scan_levels(self, shift: ShiftModel, n: int) -> list:
        """Engine levels 1..n for a scan of ``shift`` by this measure: its
        own where it holds them, else built.  Rejects, before any word is
        enumerated, a scan of another shift or of words longer than the
        measure determines."""
        _check_shift(self.shift, shift)
        self._require_depth(n)
        if self._engine is not None:
            return self._engine[:n]
        return word_levels(shift, n)


def _ancestor_masses(levels: list, at: np.ndarray,
                     masses: np.ndarray) -> list[np.ndarray]:
    """The ``masses`` of rows ``at`` of the last of ``levels`` added up on
    each level, in row order: row by row, ``at`` is walked up ``parent``."""
    out = []
    for n in range(len(levels), 0, -1):
        out.append(np.bincount(at, weights=masses,
                               minlength=len(levels[n - 1].last)))
        at = levels[n - 1].parent[at]
    return out[::-1]


def _check_shift(own: ShiftModel, shift: ShiftModel) -> None:
    """Reject a scan of ``shift`` by a measure defined on another shift."""
    if own is not shift and not (
            own.symbols == shift.symbols
            and np.array_equal(own._edges, shift._edges)):
        raise ValidationError("measure is defined on a different shift")


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right float sum (the normalising total of a measure)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _sup_weights(shift: ShiftModel, pot: Potential, t: float, n: int):
    """Engine levels 1..n and, on level n, exp(t sup f_n|[w] - max over the
    level): the sup-weight masses up to normalisation, free of overflow."""
    levels = word_levels(shift, n)
    x = t * pot.level_extrema(shift, levels)[-1][0]
    return levels, np.exp(x - x.max())


def gibbs_weights(shift: ShiftModel, pot: Potential, t: float,
                  n: int) -> CylinderMeasure:
    """Mass on depth-n cylinders proportional to exp(t sup f_n|[w])."""
    levels, w = _sup_weights(shift, pot, t, n)
    return CylinderMeasure._from_level(shift, levels, w, "sup-weight")


def gibbs_construct(shift: ShiftModel, pot: Potential, t: float, n: int,
                    m: int, depth: int) -> CylinderMeasure:
    """Average the depth-n sup-weight measure over m shifts, reported on
    depth-``depth`` cylinders.  Needs m < n and depth <= n - m + 1 so every
    shifted cylinder is still determined by the depth-n weights."""
    if m < 1:
        raise ValidationError("averaging window m must be >= 1")
    if m >= n:
        raise ValidationError(
            f"averaging window m={m} must be smaller than the construction depth n={n}")
    if depth < 1 or depth > n - m + 1:
        raise ValidationError(
            f"report depth must lie in 1..{n - m + 1} for n={n}, m={m}")
    levels, w = _sup_weights(shift, pot, t, n)
    rows = np.arange(len(w))
    share = (w / _running_sum(w)) * (1.0 / m)
    # window j of word u lands on row at[u, j] of level ``depth``; bincount
    # adds the shares in the order u, then j
    at = np.stack([_window(levels, rows, n, j, depth) for j in range(m)], axis=1)
    acc = np.bincount(at.ravel(), weights=np.repeat(share, m),
                      minlength=len(levels[depth - 1].last))
    return CylinderMeasure._from_level(shift, levels[:depth], acc, "cesaro")


# -- spectral equilibrium --------------------------------------------------


class RPFEquilibrium:
    """Stationary Markov chain built from the Perron eigendata of the
    weighted block operator; its cylinder masses realize the equilibrium
    state of t*F for additive locally constant F.

    ``src``, ``dst`` and ``prob`` hold the transitions as arrays, and every
    query reads them; ``p`` is the dense transition matrix, built from them
    on first read.  ``f`` holds f_1 on each state.  State i is row i of
    engine level ``depth`` and edge e is row e of level ``depth + 1``
    (``src`` its parent, ``dst`` the row of its suffix), so the keys
    ``src * len(states) + dst`` ascend.  ``pressure`` is the log of the
    Perron root, kept in log form.  Two chains compare equal when every
    field does, the arrays by value."""

    def __init__(self, shift: ShiftModel, t: float, depth: int, states: tuple,
                 pi: np.ndarray, pressure: float, src: np.ndarray,
                 dst: np.ndarray, prob: np.ndarray, f: np.ndarray):
        self.shift, self.t, self.depth, self.states = shift, t, depth, states
        self.pi, self.pressure = pi, pressure
        self.src, self.dst, self.prob, self.f = src, dst, prob, f

    def __eq__(self, other):
        if type(other) is not RPFEquilibrium:
            return NotImplemented
        return ((self.shift, self.t, self.depth, self.states, self.pressure)
                == (other.shift, other.t, other.depth, other.states, other.pressure)
                and all(map(np.array_equal,
                            (self.pi, self.src, self.dst, self.prob, self.f),
                            (other.pi, other.src, other.dst, other.prob, other.f))))

    @cached_property
    def p(self) -> np.ndarray:
        m = len(self.states)
        p = np.zeros((m, m))
        p[self.src, self.dst] = self.prob
        return p

    @cached_property
    def _keys(self) -> np.ndarray:
        return self.src * len(self.states) + self.dst

    @cached_property
    def _index(self) -> dict:
        return {w: i for i, w in enumerate(self.states)}

    def mass(self, word) -> float:
        word = tuple(word)
        n = len(word)
        r = self.depth
        idx = self._index
        if n == 0:
            return 1.0
        if n < r:
            return math.fsum(self.pi[i] for w, i in idx.items() if w[:n] == word)
        windows = [word[k:k + r] for k in range(n - r + 1)]
        try:
            path = np.array([idx[w] for w in windows])
        except KeyError:
            return 0.0
        keys, want = self._keys, path[:-1] * len(self.states) + path[1:]
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        mass = float(self.pi[path[0]])
        for q in np.where(keys[at] == want, self.prob[at], 0.0).tolist():
            mass *= q
        return mass

    def as_cylinder_measure(self, depth: int) -> CylinderMeasure:
        levels = word_levels(self.shift, depth)
        return CylinderMeasure._from_level(
            self.shift, levels, self.level_masses(levels)[-1], "spectral")

    def level_masses(self, levels: list) -> list[np.ndarray]:
        """:meth:`mass` on every row of each engine level, one array per
        level.  Below the block depth r a row's mass is the ``fsum`` of the
        stationary weights of the states it prefixes (the states are level r
        in engine order, so each row's states are consecutive).  From r on a
        row's mass is its parent's times one transition, the edge its last
        r + 1 symbols spell: ``mass[parent] * prob[edge row]``, the
        left-to-right product of :meth:`mass` itself, so the floats are the
        same.  A row's edge is its suffix's, carried down ``suffix``."""
        r = self.depth
        out = []
        shallow = min(len(levels), r - 1)
        if shallow:
            blocks = levels if len(levels) >= r else word_levels(self.shift, r)
            pi = self.pi.tolist()
            at = np.arange(len(pi))
            for n in range(r - 1, 0, -1):
                at = blocks[n].parent[at]   # row of each state's length-n prefix
                if n <= shallow:
                    cuts = [0, *(np.flatnonzero(np.diff(at)) + 1).tolist(),
                            len(pi)]
                    out.append(np.array([math.fsum(pi[a:b])
                                         for a, b in zip(cuts, cuts[1:])]))
            out.reverse()
        if len(levels) < r:
            return out
        mass = self.pi                  # row i of level r is state i
        out.append(mass)
        for n, (_, parent, suffix) in enumerate(levels[r:], start=r + 1):
            # row of the last r + 1 symbols in level r + 1
            edge = np.arange(len(parent)) if n == r + 1 else edge[suffix]
            mass = mass[parent] * self.prob[edge]
            out.append(mass)
        return out

    def entropy(self) -> float:
        """Exact Kolmogorov-Sinai entropy of the stationary chain:
        -sum pi_i p_ij log p_ij over the transitions."""
        live = (self.prob != 0) & (self.pi[self.src] > 0)
        i, q = self.src[live], self.prob[live]
        return math.fsum((-self.pi[i] * q * _log(q)).tolist())

    def lyapunov_exact(self) -> float:
        """integral of f_1 for the stationary chain."""
        return math.fsum((self.pi * self.f).tolist())

    def _scan_levels(self, shift: ShiftModel, n: int) -> list:
        _check_shift(self.shift, shift)
        return word_levels(shift, n)


def rpf_equilibrium(shift: ShiftModel, pot: Potential, t: float,
                    depth: int | None = None) -> RPFEquilibrium:
    """Stationary chain from the left and right Perron vectors of the
    Bellman-scaled block operator S (:func:`dominant_pair` solves each in
    the scaling matched to its side): the diagonal scaling cancels in
    pi = left * right, formed in log form, and in
    p_uv = S_uv right_v / (rho right_u).  The chain stays in the edge
    arrays of S; ``pressure`` is the root of the side solved first, the
    value :func:`~thermoshift.pressure.transfer_pressure` reports."""
    return _equilibrium(shift, _spectral_block(shift, pot, depth, [t]), t)


def _equilibrium(shift: ShiftModel, block: tuple, t: float) -> RPFEquilibrium:
    """:func:`rpf_equilibrium` at t on a block of ``_spectral_block``."""
    r, states, f, S1, column = block
    S, rho, right, log_left, log_root = dominant_pair(S1.at(t), column().at(t))
    m, src, dst = S.op.size, S.op.src, S.op.dst
    with np.errstate(divide="ignore"):
        log_pi = log_left + np.log(right)
    pi = np.exp(log_pi - log_pi.max())
    total = float(pi.sum())
    if not math.isfinite(total) or total <= 0:
        raise NumericalError("stationary weights collapsed")
    pi = pi / total
    with np.errstate(divide="ignore", invalid="ignore"):
        q = S.op.weight * right[dst] / (rho * right[src])
    q = np.where(np.isfinite(q), q, 0.0)
    rowsum = np.bincount(src, q, minlength=m)
    # Row sums must be 1 where the chain actually lives; states whose
    # eigenvector entries underflowed carry no stationary mass and only get
    # a direction repair below.
    heavy = pi > 1e-12
    if heavy.any():
        row_err = float(np.abs(rowsum[heavy] - 1.0).max())
        if row_err > 1e-9:
            raise NumericalError(
                f"stochasticization failed: row sums off by {row_err:.3e}")
    dead = ~(rowsum > 0)
    q = np.where(dead[src], S.op.weight, q)
    q = q / np.bincount(src, q, minlength=m)[src]
    return RPFEquilibrium(shift, t, r, states.words, pi, log_root, src, dst,
                          q, f)


# -- entropy and Lyapunov estimators ---------------------------------------


class EntropyEstimate(NamedTuple):
    sequence: tuple          # (n, H_n, H_n / n)
    value: float             # H_{n_max} - H_{n_max - 1}
    ratio_value: float       # min_n H_n / n
    ratios_monotone: bool


def entropy_estimate(shift: ShiftModel, measure, n_max: int) -> EntropyEstimate:
    """Cylinder entropies H_n with the conditional-difference estimator.

    H_n / n decreases to the entropy for invariant measures; the difference
    H_n - H_{n-1} converges faster and is exact for Markov measures."""
    _check_positive_int(n_max, "n_max")
    levels = measure._scan_levels(shift, n_max)
    seq = []
    prev_H = 0.0
    value = math.nan
    for n, mu in enumerate(measure.level_masses(levels), start=1):
        mu = mu[mu > 0]
        H = math.fsum((-mu * _log(mu)).tolist())
        seq.append((n, H, H / n))
        value = H - prev_H
        prev_H = H
    ratios = [r for _, _, r in seq]
    monotone = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    return EntropyEstimate(tuple(seq), value, min(ratios), monotone)


class LyapunovEstimate(NamedTuple):
    sequence: tuple          # (n, a_n)
    value: float             # running minimum
    bias_bound: float        # resolution floor from the variation constant


def lyapunov(shift: ShiftModel, pot: Potential, measure,
             n_max: int) -> LyapunovEstimate:
    """a_n = (1/n) sum_w mu[w] (sup f_n|[w] + C_aa); almost additivity makes
    the sequence an upper scheme whose running minimum estimates the
    exponent."""
    _check_positive_int(n_max, "n_max")
    levels = measure._scan_levels(shift, n_max)
    seq = []
    best = math.inf
    for n, (mu, (hi, _)) in enumerate(
            zip(measure.level_masses(levels), pot.level_extrema(shift, levels)),
            start=1):
        keep = mu > 0
        a_n = math.fsum((mu[keep] * (hi[keep] + pot.aa_const)).tolist()) / n
        seq.append((n, a_n))
        best = min(best, a_n)
    bias = (pot.bv_const + pot.aa_const) / n_max
    return LyapunovEstimate(tuple(seq), best, bias)


# -- Gibbs certificate -----------------------------------------------------


class GibbsCertificate(NamedTuple):
    c_lower: float           # min mu[w] exp(n P - t sup f_n|[w])
    c_upper: float           # max of the same ratio
    bound: float             # exp(t C_bv) (1 + slack)
    slack: float
    passed: bool
    n_range: tuple
    worst_word: tuple


def gibbs_certificate(shift: ShiftModel, pot: Potential, t: float, measure,
                      pressure: float, n_range: Sequence[int],
                      slack: float = 1e-9) -> GibbsCertificate:
    """Two-sided cylinder-ratio scan against exp(t C_bv) (1 + slack).

    With the running-infimum pressure and sup-weight masses the upper ratio
    is provably below exp(t C_bv); spectral measures carry their own
    distortion constants and may exceed the tight bound."""
    ns = list(n_range)
    if not ns:
        raise ValidationError("empty range of word lengths")
    for n in ns:
        _check_positive_int(n, "word length")
    levels = measure._scan_levels(shift, max(ns))
    values = pot.level_extrema(shift, levels)
    masses = measure.level_masses(levels)
    c_lo = math.inf
    c_hi = 0.0
    for n in ns:
        mu = masses[n - 1]
        keep = np.flatnonzero(mu > 0)
        if not len(keep):
            continue
        ratio = mu[keep] * _exp(n * pressure - t * values[n - 1][0][keep])
        top = int(np.argmax(ratio))
        if ratio[top] > c_hi:
            c_hi = float(ratio[top])
            worst_n, worst_row = n, keep[top:top + 1]
        c_lo = min(c_lo, float(ratio.min()))
    if c_hi == 0.0:
        raise NumericalError("measure assigns no mass in the scanned range")
    worst = _symbol_tuples(shift.symbols, _words(levels[:worst_n], worst_row))[0]
    bound = math.exp(t * pot.bv_const) * (1.0 + slack)
    passed = c_hi <= bound and c_lo > 0.0
    return GibbsCertificate(c_lo, c_hi, bound, slack, passed,
                            tuple(ns), worst)


# -- tightness on countable alphabets --------------------------------------


class TightSet(NamedTuple):
    eps: float
    t: float
    s_lower: float           # lower bound on the log normalizer
    cutoffs: tuple           # n_m per coordinate, m = 1..len(cutoffs)
    targets: tuple           # per-coordinate tail-mass budgets eps / 2^{m+1}
    numeric_tails: tuple     # verified weight tails at each cutoff


def tight_set(pot: DecayPotential, t: float, eps: float, m_max: int,
              s_lower: float) -> TightSet:
    """Coordinate cutoffs n_m making {x : x_m <= n_m for all m} carry mass
    >= 1 - eps for every measure obeying the marginal bound
    mu[i] <= exp(C_bv + t f_1|[i] - S).

    Each cutoff is the smallest n whose analytic tail bound meets the budget
    (eps / 2^{m+1}) exp(S - C_bv); the numeric tail is then required to beat
    the budget strictly."""
    if not isinstance(pot, DecayPotential):
        raise ValidationError("tightness cutoffs need a decay-law potential")
    if eps <= 0 or eps >= 1:
        raise ValidationError("eps must lie in (0, 1)")
    if not pot.summable(t):
        raise ConditionNotMet("the t-scaled series diverges; no tight set")
    scale = math.exp(s_lower - t * pot.bv_const)
    cutoffs = []
    targets = []
    tails = []
    for m in range(1, m_max + 1):
        budget = (eps / 2.0 ** (m + 1)) * scale
        n = _smallest_n(lambda k: pot.tail_weight_bound(k, t), budget)
        # strict numeric confirmation (partial sum + remainder bound)
        tail = pot.tail_weight_numeric(n, t)
        while tail >= budget:
            n += 1
            tail = pot.tail_weight_numeric(n, t)
        cutoffs.append(n)
        targets.append(eps / 2.0 ** (m + 1))
        tails.append(tail)
    return TightSet(eps, t, s_lower, tuple(cutoffs), tuple(targets),
                    tuple(tails))


def _smallest_n(bound, budget: float, cap: int = 10 ** 9) -> int:
    """Smallest n in 1..cap with ``bound(n) <= budget``, for a nonincreasing
    ``bound``: doubling, then bisection.  Raises when there is none."""
    lo, hi = 0, 1
    while bound(hi) > budget:
        if hi >= cap:
            raise NumericalError("tail cutoff search exceeded its cap")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


class MarginalBoundRow(NamedTuple):
    symbol: object
    mass: float
    bound: float
    ok: bool


class MarginalBoundCheck(NamedTuple):
    rows: tuple
    all_ok: bool
    worst_ratio: float


def marginal_bound_check(pot: Potential, t: float, measure,
                         s_lower: float) -> MarginalBoundCheck:
    """Check mu[i] <= exp(t C_bv + t f_1|[i] - S) per first-coordinate symbol;
    bounds at or above 1 are vacuous and count as satisfied."""
    marg = measure.marginal_vector(1)
    shift = measure.shift
    first = pot.level_extrema(shift, word_levels(shift, 1))[0][0].tolist()
    rows = []
    worst = 0.0
    for sym in sorted(marg, key=_symbol_order):
        mu = marg[sym]
        bound = math.exp(t * pot.bv_const + t * first[shift.index(sym)]
                         - s_lower)
        ok = bound >= 1.0 or mu <= bound + 1e-15
        if bound > 0:
            worst = max(worst, mu / bound)
        rows.append(MarginalBoundRow(sym, mu, bound, ok))
    return MarginalBoundCheck(tuple(rows), all(r.ok for r in rows), worst)


# -- entropy tails on countable alphabets ----------------------------------


class EntropyTailBound(NamedTuple):
    value: float
    constant: float          # the cylinder-mass constant C_{t,n}
    cutoff: int
    n: int
    applicable: bool


def entropy_tail_bound(pot: DecayPotential, t: float, n: int, cutoff: int,
                       pressure: float, terms: int = 20000) -> EntropyTailBound:
    """Bound the depth-n entropy contribution of cylinders whose first symbol
    exceeds ``cutoff``.

    Uses mu[w] <= C exp(t sup f_n|[w]) with
    C = exp(t C_bv + n t C_aa + t (n-1) sup f_1 - n P) and the monotonicity
    of -x log x below 1/e.  Raises when log C + t f_1|[cutoff+1] >= -1,
    naming the smallest workable cutoff; the test and the cutoff search run
    on log C, so they hold where C overflows a float, and a cutoff that
    passes them then raises, since C itself cannot be reported."""
    if not isinstance(pot, DecayPotential):
        raise ValidationError("entropy tail bounds need a decay-law potential")
    if not pot.summable(t):
        raise ConditionNotMet("the t-scaled series diverges at this t")
    log_c = (t * pot.bv_const + n * t * pot.aa_const
             + t * (n - 1) * pot.sup_f1 - n * pressure)

    def edge(k: int) -> float:
        return log_c + t * pot.value(k)

    if edge(cutoff + 1) >= -1.0:
        # the smallest k > cutoff with log C + t f_1|[k+1] < -1, k <= 10^9
        try:
            needed = cutoff + _smallest_n(
                lambda k: edge(cutoff + k + 1),
                math.nextafter(-1.0, -math.inf), cap=10 ** 9 - cutoff)
        except NumericalError:
            raise NumericalError("no workable cutoff below the search cap") from None
        raise ConditionNotMet(
            f"cutoff {cutoff} too small for the -x log x regime; "
            f"smallest workable cutoff is {needed}")
    try:
        C = math.exp(log_c)
    except OverflowError:
        raise NumericalError(
            f"the cylinder-mass constant C = exp({log_c!r}) overflows a float") from None
    W = pot.tail_weight_numeric(cutoff, t, terms=terms)
    G = pot.weighted_log_tail(cutoff, t, terms=terms)
    # -log C is -log_c itself where C underflows to 0
    value = n * C * ((-math.log(C) if C else -log_c) * W + G)
    return EntropyTailBound(value, C, cutoff, n, True)
