"""Pressure estimators.

Three routes, all reporting the pressure of t*F:

* ``gurevich_estimate`` — (1/n) log of periodic sums through a marked state;
  for additive families read off log-domain closed-walk sums of the block
  operator, for the cocycle off one word-level engine pass;
* ``topological_pressure`` — running infimum of (1/n) log of cylinder-sup
  partition sums; for additive families past their depth read off a
  log-domain walk of the same block operator, for the cocycle off the
  word-level engine;
* ``transfer_pressure`` — log of the Perron root of the weighted block
  operator (exact for additive locally constant potentials on finite
  shifts).  The operator is held as edge arrays with log weights f₁,
  built once and scaled by its max-plus eigenpair (beta, x); at t the log
  weights are t·f₁ and the scaling t·(beta, x), so the root is
  ``t·beta + log rho(S_t)`` with every weight of S_t in (0, 1]: the route
  works at any t >= 0, however cold.

Both walks are :meth:`~thermoshift.linalg.EdgeOperator.log_walk`, under
its budget, and both word-level routes take any finite t.
``best_pressure`` picks the sharpest applicable route, ``truncation_curve``
tracks pressure along a nested family of finite approximations, and
``pressure_curve`` samples t -> (P, Lyapunov, entropy) with a convexity
check on the grid.  Where the transfer route applies the curve reads each
point off the equilibrium state mu_t, whose integral of f_1 is dP/dt
exactly, all from one scaled block operator; elsewhere dP/dt is a central
difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConditionNotMet, NumericalError, ValidationError)
from .linalg import EdgeOperator, log_sum_exp, root_side
from .potentials import DecayPotential, Potential
from .shifts import (WORD_BUDGET, CompactApproximation, ShiftModel, _locate,
                     _symbol_tuples, is_primitive, word_levels)


@dataclass(frozen=True)
class PressureEstimate:
    value: float
    route: str              # "gurevich" | "topological" | "transfer"
    t: float
    n_used: int
    sequence: tuple = ()    # (n, estimate) diagnostics where applicable


def _check_word_t(t: float) -> None:
    """The word-level routes take any finite t, negative ones included."""
    if not math.isfinite(t):
        raise ValidationError(f"t must be finite, got {t!r}")


def gurevich_estimate(shift: ShiftModel, pot: Potential, t: float,
                      n_max: int, a=None) -> PressureEstimate:
    """(1/n) log sum over period-n orbits through ``a`` of exp(t f_n).

    For an additive family the period-n orbits through ``a`` are the
    closed n-walks of the block operator from the states that begin with
    ``a``, so the sums come from n log-domain steps of one walk per such
    state (:meth:`~thermoshift.linalg.EdgeOperator.log_walk`, under its
    budget), read on the walk's own start state.  Otherwise f_n is read
    off level n of the word-level engine, on the words that start with
    ``a`` and close up (the families without a first level are constant on
    n-cylinders).
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    _check_word_t(t)
    if a is None:
        a = shift.symbols[0]
    ai = shift.index(a)  # validates membership
    if pot.depth is not None:
        states, B, _ = weighted_block_matrix(shift, pot, t, depth=pot.depth)
        starts = [i for i, u in enumerate(states) if u[0] == a]
        cols = np.arange(len(starts))
        start = np.full((len(B), len(starts)), -math.inf)
        start[starts, cols] = 0.0
        log_z = B.log_walk(start, n_max, lambda h: log_sum_exp(h[starts, cols]))
    else:
        levels = word_levels(shift, n_max, budget=WORD_BUDGET)
        closes = shift.adjacency[:, ai].astype(bool)
        log_z = []
        for (words, _), (hi, _) in zip(levels, pot.level_extrema(shift, levels)):
            rows = (words[:, 0] == ai) & closes[words[:, -1]]
            log_z.append(log_sum_exp(t * hi[rows]))
    seq = [(n, z / n) for n, z in enumerate(log_z, start=1)]
    finite = [(n, v) for n, v in seq if v > -math.inf]
    if not finite:
        raise NumericalError(
            f"no periodic orbits through {a!r} up to length {n_max}")
    n_used, value = finite[-1]
    return PressureEstimate(value, "gurevich", t, n_used, tuple(seq))


def topological_pressure(shift: ShiftModel, pot: Potential, t: float,
                         n_max: int) -> PressureEstimate:
    """Running infimum of (1/n) log Z_n, Z_n = sum_w exp(t sup f_n|[w]).

    Each term is an upper bound for the pressure, so the running infimum is
    the sharpest certificate the scan produces.

    Lengths up to the depth r of an additive family (every length for the
    cocycle) are read off the word-level engine.  Beyond r, sup f_n on an
    n-word is the sum of f_1 over its n - r + 1 windows of r symbols plus a
    function of its last r - 1 symbols, the same as in sup f_r on its last
    window.  So ``Z_n = sum_u exp(h_n[u] + t sup f_r|[u])`` over the
    r-words u, where ``h_n = log(1ᵀ Bⁿ⁻ʳ)`` for the block operator B of
    :func:`weighted_block_matrix`: one log-domain step per length
    (:meth:`~thermoshift.linalg.EdgeOperator.log_walk`, under its budget),
    and no word level deeper than r + 1.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    _check_word_t(t)
    r = min(n_max, pot.depth or n_max)     # the lengths the engine serves
    levels = word_levels(shift, r, budget=WORD_BUDGET)
    sups = [t * hi for hi, _ in pot.level_extrema(shift, levels)]
    log_z = [log_sum_exp(s) for s in sups]
    if n_max > r:
        _, B, _ = weighted_block_matrix(shift, pot, t, depth=r)
        log_z += B.log_walk(np.zeros((len(B), 1)), n_max - r,
                            lambda h: log_sum_exp(h[:, 0] + sups[-1]))
    seq = []
    best = math.inf
    n_best = 0
    for n, z in enumerate(log_z, start=1):
        est = z / n
        seq.append((n, est))
        if est < best:
            best, n_best = est, n
    return PressureEstimate(best, "topological", t, n_best, tuple(seq))


def weighted_block_matrix(shift: ShiftModel, pot: Potential, t: float,
                          depth: int = 1):
    """States = admissible words of length ``depth``; the operator has an
    edge u -> v, of log weight t f_1|[u], when v follows u by a one-symbol
    slide.  Returns ``(states, operator, f)``, f the array of the values
    f_1|[u] per state (:meth:`Potential.first_level` on the states' level).

    The edges are the admissible words of length depth + 1: the source is
    a word's prefix (its parent row in the word-level engine), the target
    its suffix, so they come sorted by source.  The edges are enumerated
    under the word budget.
    """
    if depth < 1:
        raise ValidationError("block depth must be >= 1")
    levels = word_levels(shift, depth + 1, budget=WORD_BUDGET)
    words, parent = levels[depth]
    dst = _locate(shift, levels, words[:, 1:])
    states = _symbol_tuples(shift, levels[depth - 1][0])
    f = pot.first_level(shift, levels[:depth])
    return states, EdgeOperator(len(states), parent, dst, t * f[parent]), f


def _spectral_block(shift: ShiftModel, pot: Potential, depth: int | None,
                    ts: Sequence[float]):
    """(block depth, states, first-level values per state, row and column
    scalings S and C) of the block operator at t = 1, whose scalings at t
    are ``S.at(t)`` and ``C.at(t)``, once the potential is additive locally
    constant, the shift primitive and every t in ``ts`` finite and >= 0
    (checked in that order, all before the block is built)."""
    if pot.depth is None:
        raise ValidationError(
            "spectral route needs an additive locally constant potential")
    r = depth if depth is not None else pot.depth
    if r < pot.depth:
        raise ValidationError("block depth must cover the potential depth")
    # The r-block graph of an essential graph has the same cycle lengths, so
    # it is primitive exactly when the shift is.
    if not is_primitive(shift):
        raise ConditionNotMet(
            f"spectral route at block depth {r} needs a primitive transition "
            "structure (strongly connected, aperiodic)")
    # For t < 0 the max-plus pair of t·f₁ is not t·(beta, x) of f₁.
    if not all(math.isfinite(t) and t >= 0 for t in ts):
        raise ValidationError("spectral route needs every t finite and >= 0")
    states, B, f = weighted_block_matrix(shift, pot, 1.0, depth=r)
    return r, states, f, B.bellman_scaled(), B.T.bellman_scaled()


def transfer_pressure(shift: ShiftModel, pot: Potential, t: float,
                      depth: int | None = None) -> PressureEstimate:
    """log of the Perron root of the weighted block operator B, as
    beta + log rho(S) for a Bellman scaling S.

    The root is the same on both sides of the Perron problem, so it is
    solved on whichever of the row scaling of B and the column scaling (the
    row scaling of Bᵀ) has the shallower Howard policy forest
    (:func:`~thermoshift.linalg.root_side`, the first half of
    :func:`~thermoshift.linalg.dominant_pair`)."""
    r, _, _, S, C = _spectral_block(shift, pot, depth, [t])
    first, rho, _ = root_side(S.at(t), C.at(t))
    return PressureEstimate(first.beta + math.log(rho), "transfer", t, r)


def best_pressure(shift: ShiftModel, pot: Potential, t: float,
                  n_max: int = 12) -> PressureEstimate:
    """Transfer route when exact (t >= 0), otherwise the topological scan."""
    if pot.depth is not None and not t < 0:     # a NaN t is rejected there
        try:
            return transfer_pressure(shift, pot, t)
        except ConditionNotMet:
            pass
    return topological_pressure(shift, pot, t, n_max)


@dataclass(frozen=True)
class TruncationCurve:
    t: float
    sizes: tuple            # alphabet size per level
    pressures: tuple
    gaps: tuple             # successive differences
    monotone: bool

    @property
    def value(self) -> float:
        return self.pressures[-1]


def _check_truncation_t(pot: Potential, t: float) -> None:
    """The preconditions of :func:`truncation_curve`, which need no levels:
    t > 1, and a convergent t-scaled first-level series for a decay law."""
    if t <= 1.0:
        raise ValidationError("t must exceed 1")
    if isinstance(pot, DecayPotential) and not pot.summable(t):
        raise ConditionNotMet(
            "the t-scaled first-level series diverges at this t")


def truncation_curve(approx: CompactApproximation, pot: Potential,
                     t: float, n_max: int = 12) -> TruncationCurve:
    """Pressure along the levels of a compact approximation.

    Restriction to a sub-shift can only lower the partition sums, so the
    sequence must be nondecreasing in the level; a violation beyond 1e-9 is
    reported as a numerical failure.
    """
    _check_truncation_t(pot, t)
    pressures = []
    sizes = []
    for level in approx.levels:
        est = best_pressure(level, pot, t, n_max=n_max)
        pressures.append(est.value)
        sizes.append(level.n_symbols)
    gaps = [b - a for a, b in zip(pressures, pressures[1:])]
    monotone = all(g >= -1e-9 for g in gaps)
    if not monotone:
        raise NumericalError(
            f"pressure decreased along nested levels: gaps {gaps}")
    return TruncationCurve(t, tuple(sizes), tuple(pressures), tuple(gaps),
                           monotone)


@dataclass(frozen=True)
class CurvePoint:
    t: float
    pressure: float
    lyapunov: float         # dP/dt: integral of f_1 by mu_t, else central difference
    entropy: float          # P - t * dP/dt


@dataclass(frozen=True)
class PressureCurve:
    points: tuple
    second_diffs: tuple     # discrete second derivative at interior grid t
    convex_ok: bool


def pressure_curve(shift: ShiftModel, pot: Potential, ts: Sequence[float],
                   n_max: int = 12, h: float = 1e-3) -> PressureCurve:
    """Sample P(t) on a grid with derivative and Legendre-transform entropy.

    Where the spectral route applies (additive locally constant potential,
    primitive shift) each point is one equilibrium state mu_t
    (:func:`~thermoshift.measures.rpf_equilibrium`, all on one block
    operator): P(t) is its pressure and dP/dt = integral of f_1 d mu_t
    exactly.  Otherwise P comes from :func:`best_pressure` and dP/dt by
    central difference with step ``h``.  P(t) is convex in t, so the
    discrete second differences on the grid must stay above -1e-6.
    """
    from .measures import _equilibrium     # measures imports this module

    ts = [float(t) for t in ts]
    if len(ts) < 1:
        raise ValidationError("empty t grid")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t grid must be strictly increasing")
    if not (math.isfinite(h) and h > 0):
        raise ValidationError("h must be finite and > 0")
    spectral = pot.depth is not None and is_primitive(shift)
    if spectral:
        block = _spectral_block(shift, pot, None, ts)   # checks every t
    elif not all(map(math.isfinite, ts)):
        raise ValidationError("t grid must be finite")

    def P(t: float) -> float:
        return best_pressure(shift, pot, t, n_max=n_max).value

    points = []
    for t in ts:
        if spectral:
            eq = _equilibrium(shift, block, t)
            p, lyap = eq.pressure, eq.lyapunov_exact()
        else:
            p = P(t)
            lyap = (P(t + h) - P(t - h)) / (2.0 * h)
        points.append(CurvePoint(t, p, lyap, p - t * lyap))
    second = []
    for i in range(1, len(ts) - 1):
        left = (points[i].pressure - points[i - 1].pressure) / (ts[i] - ts[i - 1])
        right = (points[i + 1].pressure - points[i].pressure) / (ts[i + 1] - ts[i])
        second.append(2.0 * (right - left) / (ts[i + 1] - ts[i - 1]))
    convex_ok = all(d >= -1e-6 for d in second)
    return PressureCurve(tuple(points), tuple(second), convex_ok)
