"""Potential families on Markov shifts.

A potential here is a sequence of functions f_n evaluated on cylinders.  The
families shipped:

* :class:`LocallyConstant` — additive Birkhoff sums of a function of the
  first ``depth`` symbols;
* :class:`DecayPotential` — additive with first-level values following a
  decay law on a countable alphabet (``-coef*log i`` or ``-coef*i``);
* :class:`MatrixCocycle` — log of the max-row-sum norm of an ordered product
  of strictly positive matrices (almost additive but not additive);
* :class:`AffinePotential` — ``mult*f_n + n*shift`` on top of another family.

``level_extrema`` evaluates the cylinder supremum and infimum of f_n on
[w] for every word w of whole levels of the word-level engine
(:func:`~thermoshift.shifts.word_levels`); ``sup``/``inf`` call it on the
windows of a single tuple word.  For every family except depth >= 2 locally
constant the two agree because f_n is constant on n-cylinders.

The additive families (finite ``depth``) give f_1 on every row of a level
at least that deep as one array, ``first_level``: the values the spectral
route weights its block operator with.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetExceeded, ValidationError, config_number
from .linalg import _log, _log_ints
from .shifts import (Level, ShiftModel, _check_positive_int, _first_children,
                     _levels, _locate, _symbol_tuples, _words, word_levels)


class Potential:
    """Common interface; see module docstring for the families."""

    family: str = "abstract"
    depth: int | None = None  # locally-constant depth of the additive families

    @property
    def aa_const(self) -> float:
        """Declared almost-additivity constant."""
        raise NotImplementedError

    @property
    def bv_const(self) -> float:
        """Declared bounded-variation (Bowen) constant."""
        raise NotImplementedError

    @property
    def sup_f1(self) -> float:
        raise NotImplementedError

    def level_extrema(self, shift: ShiftModel,
                      levels: list) -> list[tuple[np.ndarray, np.ndarray]]:
        """(sup, inf) of f_n over the cylinder of every word of every level.

        ``levels`` holds consecutive levels 1..n of ``shift`` as
        ``(last, parent, suffix)`` triples, as :func:`word_levels` returns
        them; the result has one pair of arrays per level, aligned with its
        rows.
        """
        raise NotImplementedError

    def sup(self, word: Sequence, shift: ShiftModel | None = None) -> float:
        """sup of f_n on [word], n = len(word): a level_extrema call on the
        word's windows."""
        return self._word_extrema(word, shift)[0]

    def inf(self, word: Sequence, shift: ShiftModel | None = None) -> float:
        """inf of f_n on [word], n = len(word)."""
        return self._word_extrema(word, shift)[1]

    def _word_extrema(self, word, shift) -> tuple[float, float]:
        word = tuple(word)
        if not word:
            return 0.0, 0.0
        if shift is None:
            if (self.depth or 1) > 1:
                raise ValidationError(
                    "cylinder extrema of a depth >= 2 potential need the shift")
            # the word is admissible in the full shift on its own symbols
            own = tuple(dict.fromkeys(word))
            shift = ShiftModel.full(len(own), own)
        row = np.array([shift.index(s) for s in word])
        n = len(row)
        # engine levels as deep as the family reads whole ones, then per
        # length k the word's k-windows: window j ends in row[j + k - 1],
        # and its parent and suffix are windows j and j + 1 one level down
        # (located by walk on the engine)
        levels = word_levels(shift, min(n, self.depth or 1))
        at = _locate(shift, levels, sliding_window_view(row, len(levels)))
        for k in range(len(levels) + 1, n + 1):
            levels.append(Level(row[k - 1:], at[:-1], at[1:]))
            at = np.arange(n - k + 1)
        hi, lo = self.level_extrema(shift, levels)[-1]
        return float(hi[at[0]]), float(lo[at[0]])

    def at_periodic(self, word: Sequence) -> float:
        """f_n at the periodic point obtained by repeating ``word``."""
        raise NotImplementedError

    def first_level(self, shift: ShiftModel, levels: list) -> np.ndarray:
        """f_1 on every row of the last of ``levels`` (consecutive levels
        1..n of ``shift``, n >= ``depth``, as :func:`word_levels` returns
        them): its value on the cylinder of the row's first ``depth``
        symbols.  Defined for the additive families only."""
        raise ValidationError(
            f"{self.family} potentials have no locally constant first level")

    def summable(self, t: float = 1.0) -> bool:
        """Whether sum_i exp(t*f_1|[i]) converges: always, on the finite
        alphabet of the table and cocycle families."""
        return True


def _as_symbol_key(key):
    if isinstance(key, tuple):
        return key
    return (key,)


class LocallyConstant(Potential):
    """Additive potential whose first-level function depends on ``depth``
    leading symbols.  The table maps depth-tuples (or bare symbols when
    depth is 1) to values."""

    def __init__(self, table: Mapping, depth: int = 1):
        if depth < 1:
            raise ValidationError("locally constant depth must be >= 1")
        items = {}
        for k, v in table.items():
            key = _as_symbol_key(k)
            if len(key) != depth:
                raise ValidationError(
                    f"table key {k!r} does not have {depth} symbols")
            items[key] = float(v)
        if not items:
            raise ValidationError("empty potential table")
        self._table = items
        self._depth = depth
        self.family = "locally_constant"

    @classmethod
    def constant(cls, shift: ShiftModel, value: float) -> "LocallyConstant":
        return cls({(s,): float(value) for s in shift.symbols}, depth=1)

    @property
    def depth(self) -> int:  # type: ignore[override]
        return self._depth

    @property
    def table(self) -> dict:
        return dict(self._table)

    @property
    def aa_const(self) -> float:
        return 0.0

    @property
    def bv_const(self) -> float:
        if self._depth == 1:
            return 0.0
        vals = self._table.values()
        return (self._depth - 1) * (max(vals) - min(vals))

    @property
    def sup_f1(self) -> float:
        return max(self._table.values())

    def _window(self, key: tuple) -> float:
        try:
            return self._table[key]
        except KeyError:
            raise ValidationError(
                f"word {key!r} is outside the potential domain") from None

    def level_extrema(self, shift, levels):
        """Window sums along parents, plus for depth r >= 2 the best and worst
        sum over the r - 1 windows that run past the word, read from per-shift
        continuation tables.  The table must cover every admissible r-word.
        The row of a word's last r-window is its suffix's, carried down the
        ``suffix`` arrays from level r (taken from ``levels`` if it has it)."""
        r = self.depth
        blocks = levels[:r] if len(levels) >= r else word_levels(shift, r)
        f = self.first_level(shift, blocks)
        if r == 1:
            sums = []
            # a sum past the float range is its infinity, as the product is
            with np.errstate(over="ignore"):
                for last, parent, _ in levels:
                    step = f[last]
                    sums.append(step if not sums else sums[-1][parent] + step)
            return [(s, s) for s in sums]
        best, worst = _continuations(shift, blocks, f)
        out = []
        for n, (_, parent, suffix) in enumerate(levels, start=1):
            if n < r:       # no whole window; the row is its own in level n
                closed, at = np.zeros(len(parent)), np.arange(len(parent))
            else:           # last: the row of the last r-window in level r
                last = np.arange(len(parent)) if n == r else last[suffix]
                closed = closed[parent] + f[last]
                at = blocks[-1].suffix[last]
            k = min(n, r - 1)
            out.append((closed + best[k][at], closed + worst[k][at]))
        return out

    # bound in each family's own class, so per-word calls are told apart
    sup = Potential.sup
    inf = Potential.inf

    def at_periodic(self, word) -> float:
        n = len(word)
        r = self._depth
        return math.fsum(self._window(tuple(word[(k + i) % n] for i in range(r)))
                         for k in range(n))

    def first_level(self, shift, levels):
        """The table read once on level ``depth`` and carried down the
        parent arrays: a row's first ``depth`` symbols are its ancestor
        there.  The table must cover every row of that level."""
        r = self._depth
        if len(levels) < r:
            raise ValidationError("block depth must cover the potential depth")
        keys = _symbol_tuples(shift, _words(levels[:r]))
        vals = [self._table.get(k) for k in keys]
        if None in vals:
            raise ValidationError(
                f"word {keys[vals.index(None)]!r} is outside the potential domain")
        return _carry(np.array(vals), levels[r:])


def _carry(values: np.ndarray, levels: list) -> np.ndarray:
    """``values`` on the rows of one level carried down the ``parent``
    arrays of the ``levels`` after it: each row takes its ancestor's."""
    for level in levels:
        values = values[level.parent]
    return values


def _continuations(shift: ShiftModel, blocks: list, f: np.ndarray):
    """Best and worst continuation tables of a depth-r potential.

    ``blocks`` are the levels 1..r of the shift and ``f`` the value of every
    admissible r-word.  ``best[k]`` is indexed by the admissible k-words,
    k = 1..r-1: for k = r - 1 it is the largest sum of f over the r - 1
    windows that start inside the word and run past it; for k < r - 1 (a
    word too short to fill one window) the largest sum over its k windows.
    ``worst`` holds the minima.
    """
    r = len(blocks)
    # the r-words x are grouped by x[:-1]; x[1:] is where the walk goes next
    groups = _first_children(blocks[-1].parent)
    nxt = blocks[-1].suffix
    tables = []
    for reduce in (np.maximum.reduceat, np.minimum.reduceat):
        # walk[j]: extreme sum over j windows continuing each (r-1)-word
        walk = [np.zeros(len(blocks[-2].parent))]
        for _ in range(r - 1):
            walk.append(reduce(f + walk[-1][nxt], groups))
        table = {r - 1: walk[r - 1]}
        for k in range(1, r - 1):
            v = walk[k]
            for level in range(r - 2, k - 1, -1):  # fold children into parents
                v = reduce(v, _first_children(blocks[level].parent))
            table[k] = v
        tables.append(table)
    return tables


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _exps(x: np.ndarray) -> list:
    """``math.exp`` of each entry of the float array ``x``, inf where it
    overflows."""
    vals = x.tolist()
    try:
        return list(map(math.exp, vals))
    except OverflowError:
        return list(map(_exp_or_inf, vals))


def _fsum(terms: list) -> float:
    """``math.fsum``, or inf with the sign of the largest term where the
    sum of finite terms overflows."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.copysign(math.inf, max(terms, key=abs))


def _weighted_sum(tv: np.ndarray, e: list) -> float:
    """``fsum(-tv * e)`` with ``e = _exps(tv)``: a term whose exponential
    underflowed to 0 adds 0 (not inf * 0 where tv is -inf), and one whose
    exponential or product overflowed makes the sum -inf."""
    e = np.fromiter(e, dtype=float, count=len(e))
    with np.errstate(over="ignore"):
        terms = np.multiply(-tv, e, out=np.zeros(len(e)), where=e > 0.0)
    return _fsum(terms.tolist())


class DecayPotential(Potential):
    """Additive depth-1 potential on the alphabet 1, 2, 3, ... with
    f_1|[i] = offset - coef*log(i) (law "log") or offset - coef*i ("linear")."""

    depth = 1

    def __init__(self, law: str, coef: float, offset: float = 0.0):
        if law not in ("log", "linear"):
            raise ValidationError(f"unknown decay law {law!r}")
        if coef < 0:
            raise ValidationError("decay coefficient must be >= 0")
        self.law = law
        self.coef = float(coef)
        self.offset = float(offset)
        self.family = "decay"

    def value(self, i: int) -> float:
        if not isinstance(i, (int, np.integer)) or i < 1:
            raise ValidationError(
                f"decay potentials are defined on positive integer symbols, got {i!r}")
        if self.law == "log":
            return self.offset - self.coef * math.log(i)
        return self.offset - self.coef * i

    def _law(self, symbols: np.ndarray) -> np.ndarray:
        """``value`` on an array of positive integers: the same float
        operations (``_log_ints`` reads ``math.log`` from a table), without
        the checks."""
        # a product past the float range is -inf in f: weight 0, as intended
        with np.errstate(over="ignore"):
            return self.offset - self.coef * (
                _log_ints(symbols) if self.law == "log" else symbols)

    @property
    def aa_const(self) -> float:
        return 0.0

    @property
    def bv_const(self) -> float:
        return 0.0

    @property
    def sup_f1(self) -> float:
        return self.value(1)

    # the depth-1 branch: first_level on level 1, summed along parents
    level_extrema = LocallyConstant.level_extrema
    sup = Potential.sup
    inf = Potential.inf

    def at_periodic(self, word) -> float:
        return math.fsum(self.value(s) for s in word)

    def first_level(self, shift, levels):
        """``value`` of each row's first symbol: one value per alphabet
        symbol, the rows of level 1, carried down the parent arrays."""
        symbols = np.asarray(shift.symbols)
        if symbols.dtype.kind in "iu" and symbols.min() >= 1:
            f = self._law(symbols)
        else:       # ``value`` names the first symbol that is not a positive integer
            f = np.array([self.value(s) for s in shift.symbols])
        return _carry(f, levels[1:])

    # -- analytic tails ----------------------------------------------------

    def summable(self, t: float = 1.0) -> bool:
        """Whether sum_i exp(t*f_1|[i]) converges."""
        if self.law == "log":
            return t * self.coef > 1.0
        return t * self.coef > 0.0

    def tail_weight_bound(self, n: int, t: float = 1.0) -> float:
        """Upper bound on sum_{i>n} exp(t*f_1|[i]) (exact for the linear law)."""
        if not self.summable(t):
            return math.inf
        scale = _exp_or_inf(t * self.offset)
        if self.law == "log":
            s = t * self.coef
            power, den = n ** (1.0 - s), s - 1.0
        else:
            c = t * self.coef
            power, den = math.exp(-c * (n + 1)), -math.expm1(-c)  # not 0 at tiny c
        # a power that underflowed adds 0, also where the scale overflowed
        return scale * power / den if power else 0.0

    def tail_weight_numeric(self, n: int, t: float = 1.0, terms: int = 20000) -> float:
        """Partial tail sum plus a bound on the remainder."""
        if not self.summable(t):
            return math.inf
        partial = math.fsum(math.exp(t * self.value(i))
                            for i in range(n + 1, n + terms + 1))
        return partial + self.tail_weight_bound(n + terms, t)

    def weighted_log_tail(self, n: int, t: float, terms: int = 20000) -> float:
        """sum_{i>n} (-t*f_1|[i]) * exp(t*f_1|[i]), partial sum plus remainder bound.

        This is the t-weighted summability series; it converges whenever the
        plain series does (for the log law it needs t*coef > 1).
        """
        if not self.summable(t):
            return math.inf
        with np.errstate(over="ignore"):
            tv = t * self._law(np.arange(n + 1, n + terms + 1))
            partial = _weighted_sum(tv, _exps(tv))
        # the remainder is w * factor, w = exp(log_w) the common scale
        # e^{t*offset} X^{1-s} (log law) or e^{t*offset} q^{X+1} (linear),
        # so no intermediate overflows where the remainder does not
        X = n + terms
        if self.law == "log":
            s = t * self.coef
            inv = 1.0 / (s - 1.0)
            lx = math.log(X)
            # integral bounds for sum x^{-s} (X^{1-s} inv) and
            # sum x^{-s} log x (X^{1-s} (log X inv + inv^2)) beyond X
            log_w = t * self.offset + (1.0 - s) * lx
            factor = inv * (s * (lx + inv) - t * self.offset)
        else:
            c = t * self.coef
            q = math.exp(-c)
            p = -math.expm1(-c)     # 1 - q, not 0 where c is tiny
            # sum_{i > X} q^i = q^{X+1} / p and
            # sum_{i > X} i q^i = q^{X+1} ((X+1) - X q) / p^2
            log_w = t * self.offset - c * (X + 1)
            factor = (c * ((X + 1) - X * q) / p - t * self.offset) / p
        w = _exp_or_inf(log_w)
        # a remainder that is not positive, or whose scale underflowed, adds 0
        return partial + (w * factor if w > 0.0 and factor > 0.0 else 0.0)


class MatrixCocycle(Potential):
    """f_n(x) = log || A_{x_1} ... A_{x_n} || with the max-row-sum norm.

    Matrices must be strictly positive.  The declared almost-additivity
    constant defaults to max_i log(max entry / min entry of A_i): for
    positive matrices ||PQ|| >= ||P|| ||Q|| * min/max entry ratio of Q's
    first factor, and ||PQ|| <= ||P|| ||Q|| always.
    """

    def __init__(self, matrices: Mapping, aa_const: float | None = None):
        mats = {}
        dim = None
        for k, m in matrices.items():
            try:
                arr = np.asarray(m, dtype=np.float64)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"matrix for symbol {k!r} is not a numeric array") from None
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValidationError(f"matrix for symbol {k!r} is not square")
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise ValidationError("cocycle matrices must share one dimension")
            if not (arr > 0).all():
                raise ValidationError(
                    f"matrix for symbol {k!r} must be strictly positive")
            arr.setflags(write=False)
            mats[k] = arr
        if not mats:
            raise ValidationError("empty cocycle family")
        self._mats = mats
        self._declared_aa = (float(aa_const) if aa_const is not None
                             else max(float(np.log(m.max() / m.min()))
                                      for m in mats.values()))
        self.family = "matrix_cocycle"

    @property
    def matrices(self) -> dict:
        return dict(self._mats)

    @property
    def aa_const(self) -> float:
        return self._declared_aa

    @property
    def bv_const(self) -> float:
        return 0.0  # f_n is constant on n-cylinders

    @property
    def sup_f1(self) -> float:
        return max(float(np.log(np.abs(m).sum(axis=1).max()))
                   for m in self._mats.values())

    def level_extrema(self, shift, levels):
        """Batched prefix products P[word] = P[parent] @ A[last symbol], each
        row rescaled by its norm (kept in a log scale) once that leaves
        [1e-100, 1e100]."""
        mats = [self._mats.get(s) for s in shift.symbols]
        missing = np.array([m is None for m in mats])
        dim = next(iter(self._mats.values())).shape[0]
        stack = np.stack([np.ones((dim, dim)) if m is None else m for m in mats])
        out = []
        for last, parent, _ in levels:
            if missing[last].any():
                s = shift.symbols[last[missing[last]][0]]
                raise ValidationError(
                    f"symbol {s!r} is outside the potential domain")
            if not out:
                prod, logscale = stack[last], np.zeros(len(last))
            else:
                prod, logscale = prod[parent] @ stack[last], logscale[parent]
                nrm = np.abs(prod).sum(axis=2).max(axis=1)
                far = (nrm > 1e100) | (nrm < 1e-100)
                if far.any():
                    logscale[far] += _log(nrm[far])
                    prod[far] /= nrm[far, None, None]
            value = logscale + _log(np.abs(prod).sum(axis=2).max(axis=1))
            out.append((value, value))
        return out

    sup = Potential.sup
    inf = Potential.inf

    def at_periodic(self, word) -> float:
        return self._word_extrema(word, None)[0]


class AffinePotential(Potential):
    """mult * f_n + n * shift on top of a base family."""

    def __init__(self, base: Potential, mult: float, shift: float):
        self.base = base
        self.mult = float(mult)
        self.shift_per_n = float(shift)
        self.family = f"affine({base.family})"
        self.depth = base.depth

    @property
    def aa_const(self) -> float:
        return abs(self.mult) * self.base.aa_const

    @property
    def bv_const(self) -> float:
        return abs(self.mult) * self.base.bv_const

    @property
    def sup_f1(self) -> float:
        if self.mult < 0:
            raise ValidationError("sup_f1 undefined for negatively scaled families")
        return self.mult * self.base.sup_f1 + self.shift_per_n

    def level_extrema(self, shift, levels):
        out = []
        for n, (hi, lo) in enumerate(self.base.level_extrema(shift, levels), start=1):
            if self.mult < 0:
                hi, lo = lo, hi
            drift = n * self.shift_per_n
            out.append((self.mult * hi + drift, self.mult * lo + drift))
        return out

    sup = Potential.sup
    inf = Potential.inf

    def at_periodic(self, word) -> float:
        return self.mult * self.base.at_periodic(word) + len(word) * self.shift_per_n

    def first_level(self, shift, levels):
        return self.mult * self.base.first_level(shift, levels) + self.shift_per_n

    def summable(self, t: float = 1.0) -> bool:
        # exp(t*(mult*f + shift)) = exp(t*shift) * exp(mult*t*f)
        return self.base.summable(self.mult * t)


def potential_from_config(cfg: Mapping) -> Potential:
    """Build a potential from its JSON description."""
    if not isinstance(cfg, Mapping):
        raise ValidationError("potential: expected an object")
    family = cfg.get("family")
    if family == "locally_constant":
        depth = config_number(cfg.get("depth", 1), int, "potential.depth")
        table = cfg.get("table")
        if not isinstance(table, Mapping) or not table:
            raise ValidationError("potential.table: required mapping")
        parsed = {}
        for k, v in table.items():
            parts = str(k).split(",")
            key = tuple(_parse_symbol(p) for p in parts)
            parsed[key if len(key) > 1 else key[0]] = config_number(
                v, float, f"potential.table[{k!r}]")
        return LocallyConstant(parsed, depth=depth)
    if family == "decay":
        return DecayPotential(
            cfg.get("law", "log"),
            config_number(cfg.get("coef", 0.0), float, "potential.coef"),
            config_number(cfg.get("offset", 0.0), float, "potential.offset"))
    if family == "matrix_cocycle":
        mats_cfg = cfg.get("matrices")
        if not isinstance(mats_cfg, Mapping) or not mats_cfg:
            raise ValidationError("potential.matrices: required mapping")
        mats = {}
        for k, rows in mats_cfg.items():
            name = f"potential.matrices[{k!r}]"
            if not isinstance(rows, list) or \
                    not all(isinstance(row, list) for row in rows):
                raise ValidationError(f"{name}: expected a list of rows")
            mats[_parse_symbol(str(k))] = [[config_number(x, float, name)
                                            for x in row] for row in rows]
        aa_const = cfg.get("aa_const")
        if aa_const is not None:
            aa_const = config_number(aa_const, float, "potential.aa_const")
        return MatrixCocycle(mats, aa_const=aa_const)
    raise ValidationError(f"potential.family: unknown family {family!r}")


def _parse_symbol(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


# -- empirical constants ---------------------------------------------------


class ConstantsReport(NamedTuple):
    """Empirical almost-additivity and variation constants from a word scan.

    The maxima are lower bounds for the true constants; the check of record
    is emp <= declared.
    """

    aa_emp: float
    bv_emp: float
    sup_f1: float
    variation_by_depth: tuple
    depths_scanned: int
    budget_hit: bool
    declared_aa: float
    declared_bv: float

    @property
    def within_declared(self) -> bool:
        return self.aa_emp <= self.declared_aa + 1e-12 and \
            self.bv_emp <= self.declared_bv + 1e-12


def constants_report(shift: ShiftModel, pot: Potential, depth: int,
                     word_budget: int = 500_000) -> ConstantsReport:
    """Scan all admissible words up to ``depth``, or up to the last length
    the word-level engine builds under ``word_budget`` words per level and
    its bound on array entries, and measure additivity defects
    |f_{n+m} - f_n - f_m o sigma^n| at one point per cylinder, plus the
    variation of f_n over n-cylinders.

    Additive families satisfy f_{n+m} = f_n + f_m o sigma^n by definition,
    so their defect is exactly 0 and only the variation is scanned."""
    if depth < 2:
        raise ValidationError("constants_report needs depth >= 2")
    _check_positive_int(word_budget, "word_budget")
    levels = []
    try:
        for level in _levels(shift, depth, word_budget):
            levels.append(level)
    except BudgetExceeded:
        pass
    scanned = len(levels)
    budget_hit = scanned < depth
    values = pot.level_extrema(shift, levels)
    # f_n constant on a cylinder varies by 0 there, also where it is one
    # infinity: fmax passes over the nan of inf - inf
    with np.errstate(invalid="ignore"):
        variations = [float(np.fmax.reduce(hi - lo, initial=0.0)) for hi, lo in values]
    bv_emp = max(variations, default=0.0)
    aa_emp = 0.0
    if pot.depth is None:
        for n in range(2, scanned + 1):
            total = values[n - 1][0]
            prefix = [np.arange(len(total))]
            for k in range(n - 1, 0, -1):
                prefix.append(levels[k].parent[prefix[-1]])
            tail = prefix[0]
            for k in range(1, n):
                tail = levels[n - k].suffix[tail]   # row of w[k:] in level n - k
                fa = values[k - 1][0][prefix[n - k]]    # w[:k], level k
                fb = values[n - k - 1][0][tail]
                aa_emp = max(aa_emp, float(np.abs(total - fa - fb).max()))
    return ConstantsReport(aa_emp, bv_emp, pot.sup_f1, tuple(variations),
                           scanned, budget_hit, pot.aa_const, pot.bv_const)


# -- summability -----------------------------------------------------------


class SummabilityReport(NamedTuple):
    verdict: str            # "summable" | "not-summable" | "unknown"
    partial_sum: float      # sum_i exp(sup f_1|[i]) over the scanned range
    tail_bound: float       # analytic bound on the remainder (inf if divergent)
    t: float
    partial_sum_t: float    # t-weighted series sum_i (-t f_1|[i]) exp(t f_1|[i])
    tail_bound_t: float
    t_variant_summable: bool
    terms: int


def _exp_sums(vals: np.ndarray, t: float) -> tuple:
    """``fsum(exp(v))`` and ``fsum(-t v exp(t v))`` over the float array
    ``vals``, every term the same float the scalar loop gives (``_exps``
    maps ``math.exp``; numpy's products are the same IEEE products), but
    never an error or a nan: an exponential that underflows adds 0, and one
    that overflows makes its sum inf (-inf for the t-weighted sum).
    At t = 1, where t v is v, one exp pass serves both sums."""
    if t == 1.0:
        e = _exps(vals)
        return _fsum(e), _weighted_sum(vals, e)
    with np.errstate(over="ignore"):
        tv = t * vals
    return _fsum(_exps(vals)), _weighted_sum(tv, _exps(tv))


def summability_report(pot: Potential, t: float = 1.0,
                       shift: ShiftModel | None = None,
                       terms: int = 10_000) -> SummabilityReport:
    """Partial sums and analytic tail bounds for the summability series."""
    if isinstance(pot, DecayPotential):
        n = terms
        vals = pot._law(np.arange(1, n + 1))
        partial, partial_t = _exp_sums(vals, t)
        tail = pot.tail_weight_bound(n, 1.0)
        tail_t = pot.weighted_log_tail(n, t, terms=0)
        verdict = "summable" if pot.summable(1.0) else "not-summable"
        return SummabilityReport(verdict, partial, tail, t, partial_t, tail_t,
                                 pot.summable(t), n)
    if shift is not None:
        vals = pot.level_extrema(shift, word_levels(shift, 1))[0][0]
        partial, partial_t = _exp_sums(vals, t)
        return SummabilityReport("summable", partial, 0.0, t, partial_t, 0.0,
                                 True, len(vals))
    return SummabilityReport("unknown", math.nan, math.inf, t, math.nan,
                             math.inf, False, 0)
