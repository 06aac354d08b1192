"""Pressure estimators.

Three routes, all reporting the pressure of t*F:

* ``gurevich_estimate`` — (1/n) log of periodic sums through a marked state;
* ``topological_pressure`` — running infimum of (1/n) log of cylinder-sup
  partition sums;
* ``transfer_pressure`` — log of the dominant eigenvalue of the weighted
  block transition matrix (exact for additive locally constant potentials
  on finite shifts).

``best_pressure`` picks the sharpest applicable route, ``truncation_curve``
tracks pressure along a nested family of finite approximations, and
``pressure_curve`` samples t -> (P, Lyapunov, entropy) with a convexity
check on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConditionNotMet, NumericalError, ValidationError)
from .linalg import log_sum_exp, power_iteration
from .potentials import DecayPotential, Potential
from .shifts import (WORD_BUDGET, CompactApproximation, ShiftModel,
                     admissible_words, is_primitive, periodic_points,
                     word_levels)


@dataclass(frozen=True)
class PressureEstimate:
    value: float
    route: str              # "gurevich" | "topological" | "transfer"
    t: float
    n_used: int
    sequence: tuple = ()    # (n, estimate) diagnostics where applicable


def gurevich_estimate(shift: ShiftModel, pot: Potential, t: float,
                      n_max: int, a=None) -> PressureEstimate:
    """(1/n) log sum over period-n orbits through ``a`` of exp(t f_n)."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if a is None:
        a = shift.symbols[0]
    shift.index(a)  # validates membership
    seq = []
    for n in range(1, n_max + 1):
        words = periodic_points(shift, n, a)
        if not words:
            seq.append((n, -math.inf))
            continue
        log_z = log_sum_exp([t * pot.at_periodic(w) for w in words])
        seq.append((n, log_z / n))
    finite = [(n, v) for n, v in seq if v > -math.inf]
    if not finite:
        raise NumericalError(
            f"no periodic orbits through {a!r} up to length {n_max}")
    n_used, value = finite[-1]
    return PressureEstimate(value, "gurevich", t, n_used, tuple(seq))


def topological_pressure(shift: ShiftModel, pot: Potential, t: float,
                         n_max: int) -> PressureEstimate:
    """Running infimum of (1/n) log sum_w exp(t sup f_n|[w]).

    Each term is an upper bound for the pressure, so the running infimum is
    the sharpest certificate the scan produces.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    seq = []
    best = math.inf
    n_best = 0
    levels = word_levels(shift, n_max, budget=WORD_BUDGET)
    for n, (hi, _) in enumerate(pot.level_extrema(shift, levels), start=1):
        est = log_sum_exp((t * hi).tolist()) / n
        seq.append((n, est))
        if est < best:
            best, n_best = est, n
    return PressureEstimate(best, "topological", t, n_best, tuple(seq))


def weighted_block_matrix(shift: ShiftModel, pot: Potential, t: float,
                          depth: int = 1):
    """States = admissible words of length ``depth``; entry (u, v) is
    exp(t f_1|[u]) when v can follow u by a one-symbol slide."""
    states = admissible_words(shift, depth)
    if not states:
        raise NumericalError("shift has no admissible words at this depth")
    idx = {w: i for i, w in enumerate(states)}
    m = len(states)
    B = np.zeros((m, m))
    for u in states:
        w_u = math.exp(t * pot.first_level(u))
        for s in shift.successors(u[-1]):
            v = u[1:] + (s,)
            j = idx.get(v)
            if j is not None:
                B[idx[u], j] = w_u
    return states, B


def _spectral_block(shift: ShiftModel, pot: Potential, t: float,
                    depth: int | None):
    """(block depth, states, B) of the spectral route, once the potential
    is additive locally constant and the block structure is primitive."""
    if not pot.is_additive or pot.depth is None:
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
    states, B = weighted_block_matrix(shift, pot, t, depth=r)
    return r, states, B


def transfer_pressure(shift: ShiftModel, pot: Potential, t: float,
                      depth: int | None = None) -> PressureEstimate:
    """log of the dominant eigenvalue of the weighted block matrix."""
    r, _, B = _spectral_block(shift, pot, t, depth)
    lam, _ = power_iteration(B)
    return PressureEstimate(math.log(lam), "transfer", t, r)


def best_pressure(shift: ShiftModel, pot: Potential, t: float,
                  n_max: int = 12) -> PressureEstimate:
    """Transfer route when exact, otherwise the topological scan."""
    if pot.is_additive and pot.depth is not None:
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


def truncation_curve(approx: CompactApproximation, pot: Potential,
                     t: float, n_max: int = 12) -> TruncationCurve:
    """Pressure along the levels of a compact approximation.

    Restriction to a sub-shift can only lower the partition sums, so the
    sequence must be nondecreasing in the level; a violation beyond 1e-9 is
    reported as a numerical failure.
    """
    if t <= 1.0:
        raise ValidationError("t must exceed 1")
    if isinstance(pot, DecayPotential) and not pot.summable(t):
        raise ConditionNotMet(
            "the t-scaled first-level series diverges at this t")
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
    lyapunov: float         # dP/dt by central difference
    entropy: float          # P - t * dP/dt


@dataclass(frozen=True)
class PressureCurve:
    points: tuple
    second_diffs: tuple     # discrete second derivative at interior grid t
    convex_ok: bool


def pressure_curve(shift: ShiftModel, pot: Potential, ts: Sequence[float],
                   n_max: int = 12, h: float = 1e-3) -> PressureCurve:
    """Sample P(t) on a grid with derivative and Legendre-transform entropy.

    P(t) is convex in t, so the discrete second differences on the grid must
    stay above -1e-6.
    """
    ts = [float(t) for t in ts]
    if len(ts) < 1:
        raise ValidationError("empty t grid")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t grid must be strictly increasing")

    def P(t: float) -> float:
        return best_pressure(shift, pot, t, n_max=n_max).value

    points = []
    for t in ts:
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
