"""Small dense linear-algebra helpers shared by the pressure and measure code."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

TOL = 1e-13
DEFAULT_MAX_ITER = 100_000


def power_iteration(matrix: np.ndarray,
                    max_iter: int = DEFAULT_MAX_ITER) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and eigenvector of a nonnegative matrix.

    Starts from the all-ones vector and renormalizes in L1, so the run is
    deterministic.  Convergence requires the eigenvalue estimate and every
    significant vector component to settle to relative tolerance ``TOL``
    (componentwise, because eigenvector entries can span hundreds of orders
    of magnitude and downstream ratios need their relative accuracy).  On an
    imprimitive matrix the estimates oscillate and the iteration is reported
    as failed rather than silently returning a stale value.
    """
    B = np.asarray(matrix, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] == 0:
        raise NumericalError("power iteration needs a nonempty square matrix")
    if (B < 0).any():
        raise NumericalError("power iteration needs a nonnegative matrix")
    v = np.ones(B.shape[0], dtype=np.float64)
    v /= v.sum()
    v_prev: np.ndarray | None = None
    lam_prev = math.inf
    for _ in range(max_iter):
        w = B @ v
        s = float(w.sum())
        if not math.isfinite(s) or s <= 0.0:
            raise NumericalError("power iteration collapsed (zero or non-finite growth)")
        w /= s
        lam_ok = abs(s - lam_prev) <= TOL * max(abs(s), 1.0)
        if lam_ok and _relative_step(w, v) <= TOL:
            return s, w
        if (lam_ok and v_prev is not None
                and _relative_step(w, v_prev) <= TOL):
            # A nearly period-2 matrix leaves an alternating residual pinned
            # at the rounding floor, so consecutive iterates never agree even
            # though the even subsequence has settled.  The residual flips
            # sign each step; averaging two iterates cancels it.
            avg = 0.5 * (w + v)
            return s, avg / avg.sum()
        lam_prev = s
        v_prev = v
        v = w
    raise NumericalError(
        f"power iteration failed to converge within {max_iter} iterations "
        "(matrix may be imprimitive)")


def _relative_step(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a), np.abs(b))
    sig = denom > 1e-280  # entries below this are sub-representable noise
    if not sig.any():
        return 0.0
    return float(np.max(np.abs(a - b)[sig] / denom[sig]))


def dominant_pair(matrix: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Dominant eigenvalue with right and left eigenvectors (both L1-normalized)."""
    lam_r, right = power_iteration(matrix)
    lam_l, left = power_iteration(np.asarray(matrix, dtype=np.float64).T)
    if abs(lam_r - lam_l) > 1e-9 * max(abs(lam_r), abs(lam_l), 1.0):
        raise NumericalError(
            f"left/right spectral estimates disagree: {lam_r!r} vs {lam_l!r}")
    return 0.5 * (lam_r + lam_l), right, left


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise math.log: numpy's log can differ from it in the last bit."""
    return np.array([math.log(v) for v in x.tolist()])


def _exp(x: np.ndarray) -> np.ndarray:
    """Elementwise math.exp: numpy's exp can differ from it in the last bit."""
    return np.array([math.exp(v) for v in x.tolist()])


def log_sum_exp(values) -> float:
    """log(sum(exp(v))) with the usual max shift; -inf for an empty input."""
    vals = [float(v) for v in values]
    if not vals:
        return -math.inf
    m = max(vals)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))
