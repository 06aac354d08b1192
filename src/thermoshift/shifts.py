"""Finite Markov shifts, countable-alphabet shift rules, and nested compact
approximations of a countable shift by finite mixing subshifts.

Words are plain tuples of symbols at the package's interfaces; inside, the
word-level engine (:func:`word_levels`) holds whole levels as three integer
arrays per level (each row's last symbol index and its ``parent`` and
``suffix`` rows in the level before), and applies the word budget itself: at
most ``WORD_BUDGET`` words per level (read at call time, unless the caller
passes its own budget) and 16 times as many array entries (3 per word) over
the levels of one enumeration.  :func:`_words` spells rows out as symbol
indices where a caller prints or keys words.  Word-length conventions: an
admissible word of length n corresponds to a path with n-1 edges, and
per-pair mixing thresholds are stored as word lengths (so the smallest
meaningful threshold is 2).
"""

from __future__ import annotations

import hashlib
import numbers
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (BudgetExceeded, ConstructionFailure, UnsupportedEnumeration,
                     ValidationError, config_number)


def _matrix_codes(adjacency, m: int) -> np.ndarray:
    """The flat codes of the 1 entries of a square 0/1 matrix of size m,
    ascending; any entry other than 0 or 1 is a ValidationError."""
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValidationError("adjacency must be a square matrix")
    if adj.shape[0] != m:
        raise ValidationError("adjacency size does not match the alphabet")
    edges = np.flatnonzero(adj)
    if not (adj.ravel()[edges] == 1).all():    # NaN, negative, 2, ...
        raise ValidationError("adjacency entries must be 0 or 1")
    return edges


class ShiftModel:
    """A finite-state topological Markov shift.

    ``adjacency[i, j] == 1`` means ``symbols[i]`` may be followed by
    ``symbols[j]``; every other entry must be 0.  Every row and column must
    contain at least one edge.  When the model is a finite truncation of a
    countable shift, ``ambient`` points back at the generating rule and
    ``assumed_mixing`` records that topological mixing of the ambient shift
    is an assumption, not a computed fact.

    A shift is built and validated from one graph record, ``_edges``: the
    flat codes i*m + j of the edges in ascending order (row i holds the
    successors of symbol i in alphabet order).  A matrix given to the
    constructor is turned into these codes; rules and the other builders
    hand them over directly (:meth:`_from_codes`).  The out-degrees
    ``_degree`` are computed from them, and every query, the word engine
    and the period read the arrays, so a shift holds O(edges) memory.  The
    read-only uint8 ``adjacency`` is built from them on first read; only
    the dense algorithms (the mixing certificate's power walk, the
    reachability tables of :func:`compact_approximation` and the
    exhaustive test reference :func:`~thermoshift.zerotemp.simple_cycles`)
    read it.  A shift is immutable and compares by identity.
    """

    def __init__(self, symbols: tuple, adjacency: np.ndarray,
                 ambient: "AmbientRule | None" = None,
                 assumed_mixing: bool = False):
        symbols = tuple(symbols)
        self._build(symbols, _matrix_codes(adjacency, len(symbols)), ambient,
                    assumed_mixing)

    @classmethod
    def _from_codes(cls, symbols: Sequence, codes: np.ndarray,
                    ambient: "AmbientRule | None" = None,
                    assumed_mixing: bool = False) -> "ShiftModel":
        """The shift on ``symbols`` whose edges are the ascending flat codes
        i*m + j (m symbols): the same validation as a matrix gets, without
        one."""
        shift = cls.__new__(cls)
        shift._build(tuple(symbols), codes, ambient, assumed_mixing)
        return shift

    def _build(self, symbols: tuple, codes, ambient, assumed_mixing) -> None:
        """Validate the alphabet and the ascending edge codes, and set the
        fields; the one path both constructors take."""
        m = len(symbols)
        if m == 0:
            raise ValidationError("alphabet must be nonempty")
        if len(set(symbols)) != m:
            raise ValidationError("alphabet contains duplicate symbols")
        edges = np.asarray(codes, dtype=np.intp)
        if edges.ndim != 1 or (len(edges) and not (
                0 <= edges[0] and edges[-1] < m * m and (edges[1:] > edges[:-1]).all())):
            raise ValidationError("edge codes must be ascending flat indices i*m + j")
        # row i of the codes is one run, from its start to the next row's
        degree = np.diff(np.searchsorted(edges, np.arange(0, m * m + 1, m)))
        if not degree.all():
            raise ValidationError("adjacency has an all-zero row")
        if not np.bincount(edges % m, minlength=m).all():
            raise ValidationError("adjacency has an all-zero column")
        for array in (edges, degree):
            array.setflags(write=False)
        vars(self).update(symbols=symbols, ambient=ambient,
                          assumed_mixing=assumed_mixing,
                          _index={s: i for i, s in enumerate(symbols)},
                          _edges=edges, _degree=degree)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The read-only m×m uint8 0/1 matrix of the edges, built on first
        read."""
        m = self.n_symbols
        adj = np.zeros(m * m, dtype=np.uint8)
        adj[self._edges] = 1
        adj = adj.reshape(m, m)
        adj.setflags(write=False)
        return adj

    @cached_property
    def period(self) -> int:
        """Period of the transition graph (gcd of its cycle lengths), 0 when
        it is not strongly connected: the one primitivity decision, made
        once per shift."""
        return _period((self.n_symbols, self._edges))

    # -- basic queries -----------------------------------------------------

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    def index(self, symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValidationError(f"symbol {symbol!r} is not in the alphabet") from None

    def _has_edges(self, codes: np.ndarray) -> np.ndarray:
        """Whether each flat code i*m + j is an edge, by binary search in
        ``_edges`` (never empty: every row holds an edge)."""
        edges = self._edges
        return edges[np.minimum(np.searchsorted(edges, codes), len(edges) - 1)] == codes

    def is_edge(self, a, b) -> bool:
        return bool(self._has_edges(self.index(a) * self.n_symbols + self.index(b)))

    def successors(self, a) -> tuple:
        i, m = self.index(a), self.n_symbols
        lo = int(np.searchsorted(self._edges, i * m))
        row = self._edges[lo:lo + self._degree[i]] - i * m
        return tuple(self.symbols[j] for j in row.tolist())

    def is_admissible(self, word: Sequence) -> bool:
        if len(word) == 0:
            return True
        try:
            idx = np.array([self.index(s) for s in word])
        except ValidationError:
            return False
        return bool(self._has_edges(idx[:-1] * self.n_symbols + idx[1:]).all())

    def fingerprint(self) -> str:
        """Stable identifier of (alphabet, edge set), used to match artifacts."""
        names = [repr(s) for s in self.symbols]
        src, dst = np.divmod(self._edges, self.n_symbols)
        edges = sorted((names[i], names[j]) for i, j in zip(src.tolist(), dst.tolist()))
        blob = repr((tuple(names), edges)).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def restrict(self, symbols: Iterable) -> "ShiftModel":
        """The subshift spanned by ``symbols`` with all inherited edges."""
        keep = tuple(symbols)
        m, n = self.n_symbols, len(keep)
        at = np.full(m, -1)             # position of each kept symbol in ``keep``
        at[[self.index(s) for s in keep]] = np.arange(n)
        src, dst = (at[v] for v in np.divmod(self._edges, m))
        inside = (src >= 0) & (dst >= 0)
        return ShiftModel._from_codes(keep, np.sort(src[inside] * n + dst[inside]),
                                      ambient=self.ambient, assumed_mixing=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, symbols: Sequence, edges: Iterable[tuple]) -> "ShiftModel":
        symbols = tuple(symbols)
        index = {s: i for i, s in enumerate(symbols)}
        edges = list(edges)
        if set(map(len, edges)) - {2}:
            raise ValidationError("edges must be (a, b) pairs")
        try:    # the index of both ends of every edge, in one pass
            ends = np.fromiter(map(index.__getitem__, chain.from_iterable(edges)),
                               dtype=np.intp, count=2 * len(edges))
        except KeyError:
            a, b = next(e for e in edges if e[0] not in index or e[1] not in index)
            raise ValidationError(
                f"edge ({a!r}, {b!r}) uses a symbol outside the alphabet") from None
        codes = np.sort(ends[0::2] * len(symbols) + ends[1::2])
        # each edge once, as ascending codes hold it
        return cls._from_codes(symbols, np.concatenate(
            [codes[:1], codes[1:][codes[1:] != codes[:-1]]]))

    @classmethod
    def full(cls, n: int, symbols: Sequence | None = None) -> "ShiftModel":
        if symbols is None:
            symbols = tuple(range(n))
        return cls(tuple(symbols), np.ones((n, n), dtype=np.uint8))

    @classmethod
    def golden_mean(cls) -> "ShiftModel":
        """Two symbols 0, 1 with the word 11 forbidden."""
        return cls((0, 1), np.array([[1, 1], [1, 0]], dtype=np.uint8))


class AmbientRule:
    """Edge rule of a countable-alphabet shift over the symbols 1, 2, 3, ...

    Concrete rules supply :meth:`edge`; truncations give finite views.  Rules
    shipped here are topologically mixing; that property is recorded as an
    assumption on the truncated models rather than certified.

    A finite view is built from :meth:`edge_codes`, the edges among an
    ascending array of symbols as flat codes.  The version here evaluates
    :meth:`edge` once on the index grid, so a rule that defines only
    :meth:`edge` must let it broadcast over integer arrays (returning a
    boolean array, or a scalar that holds for every pair); a rule that
    knows its edges directly overrides :meth:`edge_codes` and builds no
    grid.
    """

    def edge(self, i, j):
        raise NotImplementedError

    def edge_codes(self, idx: np.ndarray) -> np.ndarray:
        """Ascending flat codes k*m + l of the edges ``idx[k] -> idx[l]``
        among the m symbols of the ascending array ``idx``."""
        m = len(idx)
        return np.flatnonzero(np.broadcast_to(self.edge(idx[:, None], idx[None, :]),
                                              (m, m)))

    def edge_count(self, n: int) -> int:
        """The number of entries a truncation to n symbols builds: the n×n
        grid that :meth:`edge_codes` evaluates here; a rule that lists its
        edges directly gives their count."""
        return n * n

    def truncate(self, n: int) -> ShiftModel:
        """The finite shift on the symbols 1..n.  A truncation whose edge
        record exceeds ``WORD_BUDGET`` (read at call time) raises
        :class:`BudgetExceeded` before anything of that size is built."""
        _check_positive_int(n, "truncation size")
        _check_edge_budget(self.edge_count(n), f"truncation to {n} symbols")
        return _rule_model(self, range(1, n + 1), assumed_mixing=True)


class FullShiftRule(AmbientRule):
    """Full shift over a countable alphabet: every transition allowed."""

    def edge(self, i, j):
        return True

    def edge_codes(self, idx):
        return np.arange(len(idx) ** 2)


class RenewalRule(AmbientRule):
    """Renewal shift: state 1 connects to every state, and i -> i-1 for i >= 2."""

    def edge(self, i, j):
        return (i == 1) | (j == i - 1)

    def edge_count(self, n):
        return 2 * n - 1

    def edge_codes(self, idx):
        """The row of symbol 1, and each symbol's edge down to its
        predecessor where that is in ``idx``: O(m log m), no grid."""
        m = len(idx)
        k = np.arange(m)
        pos = np.searchsorted(idx, idx - 1)
        down = pos < m
        down[down] = idx[pos[down]] == idx[down] - 1
        codes = k[down] * m + pos[down]
        one = int(np.searchsorted(idx, 1))
        if one < m and idx[one] == 1:       # its row holds every symbol
            codes = np.concatenate([codes[codes < one * m], one * m + k,
                                    codes[codes >= (one + 1) * m]])
        return codes


RULES = {"full": FullShiftRule, "renewal": RenewalRule}


def shift_from_config(cfg: Mapping) -> ShiftModel:
    """Build a shift from its JSON description.

    Either ``{"rule": "full"|"renewal", "truncation": N}`` or
    ``{"alphabet": N or [symbols...], "edges": [[a, b], ...] or "full"}``.
    A shift of more than ``WORD_BUDGET`` edges (2N - 1 on a renewal
    truncation, N**2 on a full one) raises :class:`BudgetExceeded`, and an
    alphabet of N symbols with fewer than N edges a :class:`ValidationError`,
    before any array or tuple of N symbols is built.
    """
    if not isinstance(cfg, Mapping):
        raise ValidationError("shift: expected an object")
    if "rule" in cfg:
        rule = RULES.get(cfg["rule"]) if isinstance(cfg["rule"], str) else None
        if rule is None:
            raise ValidationError(f"shift.rule: unknown rule {cfg['rule']!r}")
        if "truncation" not in cfg:
            raise ValidationError("shift.truncation: required with a rule-based shift")
        n = config_number(cfg["truncation"], int, "shift.truncation")
        if n < 1:
            raise ValidationError("shift.truncation: must be a positive integer")
        return rule().truncate(n)
    if "alphabet" not in cfg:
        raise ValidationError("shift.alphabet: required")
    alphabet = cfg["alphabet"]
    if isinstance(alphabet, int) and not isinstance(alphabet, bool):
        symbols = None          # range(alphabet), built once its size is checked
    elif isinstance(alphabet, (list, tuple)) and _symbols(alphabet):
        symbols = tuple(alphabet)
        # documents name symbols by str(); 1 and "1" would share a name
        named: dict = {}
        for s in symbols:
            if named.setdefault(str(s), s) != s:
                raise ValidationError(
                    f"shift.alphabet: symbols {named[str(s)]!r} and {s!r} print the same")
    else:
        raise ValidationError("shift.alphabet: must be an integer or a list of symbols")
    if "edges" not in cfg:
        raise ValidationError("shift.edges: required for an explicit shift")
    edges = cfg["edges"]
    m = len(symbols) if symbols is not None else max(alphabet, 0)
    if edges == "full":
        _check_edge_budget(m * m, f"full shift on {m} symbols")
        return ShiftModel._from_codes(symbols or tuple(range(m)), np.arange(m * m))
    if not (isinstance(edges, (list, tuple))
            and all(map(isinstance, edges, repeat((list, tuple))))
            and set(map(len, edges)) <= {2} and _symbols(chain.from_iterable(edges))):
        raise ValidationError('shift.edges: must be a list of [a, b] pairs or "full"')
    if symbols is None:
        if m > len(edges):      # every symbol needs an out-edge
            raise ValidationError("adjacency has an all-zero row")
        symbols = tuple(range(m))
    return ShiftModel.from_edges(symbols, edges)


def _symbols(items) -> bool:
    # integers (not booleans) and strings are what potential table keys parse to
    return set(map(type, items)) <= {int, str}


def _symbol_order(s) -> tuple:
    """Sort key of a symbol, by type first: a finite alphabet may mix
    integers and strings, and within one type the order is the values'."""
    return type(s).__name__, s


# -- word enumeration ------------------------------------------------------


def _check_positive_int(n, name: str) -> None:
    """Reject a length or size ``n`` that is not a positive integer: a
    :class:`numbers.Integral` (numpy integers included) other than a bool,
    at least 1."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"{name} must be a positive integer, got {n!r}")


def _check_edge_budget(count: int, what: str) -> None:
    """Refuse a shift whose edge record holds more than ``WORD_BUDGET``
    entries (read at call time), before it is built."""
    if count > WORD_BUDGET:
        raise BudgetExceeded(
            f"{what}: {count} edges exceed budget {WORD_BUDGET}")


def _require_finite(shift) -> ShiftModel:
    if isinstance(shift, AmbientRule):
        raise UnsupportedEnumeration(
            "enumeration over a countable shift needs a finite truncation "
            "(call rule.truncate(N) first)")
    if not isinstance(shift, ShiftModel):
        raise ValidationError(f"expected a ShiftModel, got {type(shift).__name__}")
    return shift


class Level(NamedTuple):
    """One level of :func:`word_levels`: per row, a word in the order of
    :func:`admissible_words` (so a word's children are consecutive rows),
    the index of its ``last`` symbol and the rows of its prefix
    (``parent``) and of its shift (``suffix``) in the level before.  On
    level 1, row i is symbol i and both pointers are row 0, the empty
    word.  :func:`_words` spells the rows out."""

    last: np.ndarray
    parent: np.ndarray
    suffix: np.ndarray


# Word budget of every estimator that enumerates a whole level, read at call
# time; the levels of one enumeration may hold 16 times as many array
# entries (3 per word).
WORD_BUDGET = 2_000_000


def _levels(shift: ShiftModel, n: int, budget: int | None = None):
    """Levels 1..n of :func:`word_levels`, one at a time.

    Each level's size is the sum of the out-degrees of the previous level's
    last symbols, so it is checked before the level is allocated: against
    ``budget`` words (``WORD_BUDGET`` when not given), and, with the levels
    built before it, against ``16 * WORD_BUDGET`` array entries (3 per word)
    whatever ``budget`` is.
    """
    shift = _require_finite(shift)
    _check_positive_int(n, "word length")
    if budget is None:
        budget = WORD_BUDGET
    max_entries = 16 * WORD_BUDGET
    entries = 0

    def room(size: int, length: int) -> None:
        nonlocal entries
        if size > budget:
            raise BudgetExceeded(
                f"admissible word enumeration exceeded budget {budget} at length {length}")
        entries += 3 * size
        if entries > max_entries:
            raise BudgetExceeded(
                f"admissible word enumeration exceeded {max_entries} array entries "
                f"(3 per word) at length {length}")

    m = shift.n_symbols
    degree = shift._degree
    first_edge = np.cumsum(degree) - degree
    room(m, 1)
    empty = np.zeros(m, dtype=np.intp)      # the empty word, row 0
    level = Level(np.arange(m), empty, empty)
    yield level
    offsets = None      # first child in ``level`` of each row before it
    for length in range(2, n + 1):
        counts = degree[level.last]
        size = int(counts.sum())
        room(size, length)
        parent = np.repeat(np.arange(len(counts)), counts)
        # the r-th child of a word ending in a takes a's r-th successor
        starts = np.cumsum(counts) - counts
        rank = np.arange(size) - np.repeat(starts, counts)
        last = shift._edges[first_edge[level.last[parent]] + rank] % m
        # and its suffix is the r-th child of the parent's suffix
        suffix = (last if offsets is None
                  else np.repeat(offsets[level.suffix], counts) + rank)
        level = Level(last, parent, suffix)
        yield level
        offsets = starts


def word_levels(shift: ShiftModel, n: int, budget: int | None = None) -> list[Level]:
    """Every admissible level of lengths 1..n, as :class:`Level` triples.

    Raises :class:`BudgetExceeded` before building a level past either
    bound of :func:`_levels`.
    """
    return list(_levels(shift, n, budget))


def admissible_words(shift: ShiftModel, n: int, budget: int | None = None) -> list[tuple]:
    """All admissible words of length n, lexicographic in alphabet order."""
    return _symbol_tuples(shift, _words(word_levels(shift, n, budget)))


def _words(levels: list, at: np.ndarray | None = None) -> np.ndarray:
    """Rows ``at`` (every row when not given) of the last of ``levels``, a
    run of consecutive levels from level 1, spelled as words of symbol
    indices: each column is ``last`` read up the ``parent`` arrays.  The one
    place that turns engine levels into a word matrix."""
    if at is None:
        at = np.arange(len(levels[-1].last))
    words = np.empty((len(at), len(levels)), dtype=np.intp)
    for k in range(len(levels) - 1, -1, -1):
        words[:, k] = levels[k].last[at]
        at = levels[k].parent[at]
    return words


def _symbol_tuples(shift: ShiftModel, words: np.ndarray) -> list[tuple]:
    """Rows of symbol indices as tuples of the shift's symbols."""
    symbols = np.empty(shift.n_symbols, dtype=object)
    for i, s in enumerate(shift.symbols):
        symbols[i] = s
    return list(map(tuple, symbols[words].tolist()))


class _LevelWords:
    """Engine levels 1..d, with the words of level d spelled on first read,
    as a tuple of symbol tuples."""

    def __init__(self, shift: ShiftModel, levels: list):
        self.shift, self.levels = shift, levels

    @cached_property
    def words(self) -> tuple:
        return tuple(_symbol_tuples(self.shift, _words(self.levels)))


def _first_children(parent: np.ndarray) -> np.ndarray:
    """Row of each word's first child, from the ``parent`` array of the
    level after it (every word has a child: no symbol is a dead end)."""
    return np.flatnonzero(np.diff(parent, prepend=-1))


def _window(levels: list, at: np.ndarray, n: int, j: int, d: int) -> np.ndarray:
    """Row in ``levels[d - 1]`` of the window of length d at position j of
    rows ``at`` of level n: ``suffix`` applied j times, then ``parent``
    n - j - d times."""
    for k in range(n, n - j, -1):
        at = levels[k - 1].suffix[at]
    for k in range(n - j, d, -1):
        at = levels[k - 1].parent[at]
    return at


def _locate(shift: ShiftModel, levels: list, rows: np.ndarray) -> np.ndarray:
    """Row of each of ``rows`` (words of length k, as symbol indices) in
    ``levels[k - 1]`` of :func:`word_levels`, found by walking down the
    prefix tree one symbol at a time (windows of engine rows are
    :func:`_window`'s)."""
    m = shift.n_symbols
    edges = shift._edges
    at = rows[:, 0]
    for k in range(1, rows.shape[1]):
        a = rows[:, k - 1]
        code = a * m + rows[:, k]
        pos = np.searchsorted(edges, code)
        if not np.array_equal(edges[np.minimum(pos, len(edges) - 1)], code):
            raise ValidationError("word is not admissible in this shift")
        rank = pos - np.searchsorted(edges, a * m)
        at = _first_children(levels[k].parent)[at] + rank
    return at


def count_admissible_words(shift: ShiftModel, n: int) -> int:
    """Number of admissible words of length n (sum of entries of M^(n-1)),
    in exact integer arithmetic."""
    shift = _require_finite(shift)
    _check_positive_int(n, "word length")
    # words of the current length from each symbol, in exact Python ints
    starting = np.ones(shift.n_symbols, dtype=object)
    succ = shift._edges % shift.n_symbols
    first_edge = np.cumsum(shift._degree) - shift._degree
    for _ in range(n - 1):
        starting = np.add.reduceat(starting[succ], first_edge)
    return int(starting.sum())


def periodic_points(shift: ShiftModel, n: int, a) -> list[tuple]:
    """Length-n cyclic words through ``a``: w admissible, w[0] == a, and the
    wrap edge w[-1] -> w[0] admissible.  They are the rows of level n of the
    word-level engine that start with ``a`` and whose last symbol has an
    edge back to it, so they come in lexicographic order."""
    shift = _require_finite(shift)
    _check_positive_int(n, "period")
    ai = shift.index(a)
    words = _words(word_levels(shift, n))
    words = words[words[:, 0] == ai]
    closes = shift._has_edges(words[:, -1] * shift.n_symbols + ai)
    return _symbol_tuples(shift, words[closes])


# -- mixing certificates ---------------------------------------------------


class MixingCertificate:
    """Primitivity evidence for a finite shift.

    ``primitive_exponent`` counts edges (the smallest k with M^k positive).
    ``lengths[i, j]`` is the smallest word length N such that admissible
    words from ``symbols[i]`` to ``symbols[j]`` exist at every length >= N
    (floored at 2); ``thresholds`` is the same data as a dict keyed by
    symbol pair, row by row, built on first read.  Both are None when the
    shift is not mixing.  Immutable and compared by identity, as a shift.
    """

    def __init__(self, status: str, primitive_exponent: int | None,
                 symbols: tuple = (), lengths: np.ndarray | None = None):
        # status: "mixing" | "periodic" | "reducible"
        vars(self).update(status=status, primitive_exponent=primitive_exponent,
                          symbols=symbols, lengths=lengths)

    __setattr__, __delattr__ = ShiftModel.__setattr__, ShiftModel.__delattr__

    @property
    def mixing(self) -> bool:
        return self.status == "mixing"

    @cached_property
    def thresholds(self) -> dict | None:
        if self.lengths is None:
            return None
        return {(a, b): n for a, row in zip(self.symbols, self.lengths.tolist())
                for b, n in zip(self.symbols, row)}


def _period(graph: tuple[int, np.ndarray]) -> int:
    """Period (gcd of cycle lengths) of a digraph, or 0 when it is not
    strongly connected; primitive means period 1.

    ``graph`` is ``(n, codes)``: vertices 0..n-1 and the flat codes
    u*n + v of the edges u -> v in ascending order.  BFS levels from vertex
    0, backward and forward, decide strong connectivity; every edge u -> v
    then contributes level[u] + 1 - level[v] to the gcd.
    """
    n, codes = graph
    src, dst = np.divmod(codes, n)
    for walk in (np.sort(dst * n + src), codes):    # backward, then forward
        level = _bfs_levels(n, walk)
        if level is None:
            return 0
    level = np.array(level)
    return int(np.gcd.reduce(level[src] + 1 - level[dst]))


def _bfs_levels(n: int, codes: np.ndarray) -> list[int] | None:
    """BFS distance of every vertex from vertex 0 along the edges ``codes``
    (ascending flat codes u*n + v), or None when one is unreachable.

    A vertex's level is final once assigned, so the walk stops as soon as
    every vertex has one: on a complete graph it reads one row.
    """
    # row u of the codes is one run, succ[starts[u]:starts[u + 1]]
    starts = np.searchsorted(codes, np.arange(0, n * n + 1, n)).tolist()
    succ = (codes % n).tolist()
    level = [-1] * n
    level[0] = 0
    queue = [0]
    unseen = n - 1
    for u in queue:
        if not unseen:
            break
        d = level[u] + 1
        for v in succ[starts[u]:starts[u + 1]]:
            if level[v] < 0:
                level[v] = d
                queue.append(v)
                unseen -= 1
    return None if unseen else level


def _strong_components(n: int, codes: np.ndarray) -> list[int]:
    """Strongly connected component of every vertex 0..n-1 along the edges
    ``codes`` (ascending flat codes u*n + v), labelled by the vertex of it
    that the search reached first: Tarjan's algorithm with an explicit
    stack, so a chain of any length needs no recursion, and each edge is
    looked at once."""
    # row u of the codes is one run, succ[starts[u]:starts[u + 1]]
    starts = np.searchsorted(codes, np.arange(0, n * n + 1, n)).tolist()
    succ = (codes % n).tolist()
    order, low, comp = [-1] * n, [0] * n, [-1] * n  # comp -1: unassigned
    stack: list[int] = []
    count = 0
    for root in range(n):
        work = [(root, None)] if order[root] < 0 else []
        while work:
            u, row = work.pop()
            if row is None:             # first visit
                order[u] = low[u] = count
                count += 1
                stack.append(u)
                row = iter(succ[starts[u]:starts[u + 1]])
            for v in row:
                if order[v] < 0:
                    work += [(u, row), (v, None)]
                    break
                if comp[v] < 0:         # v is on the stack
                    low[u] = min(low[u], order[v])
            else:
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
                if low[u] == order[u]:
                    while comp[u] < 0:
                        comp[stack.pop()] = u
    return comp


def _mixing_status(shift: ShiftModel) -> str:
    period = shift.period
    return "mixing" if period == 1 else "periodic" if period else "reducible"


def is_primitive(shift: ShiftModel) -> bool:
    """Irreducible and aperiodic, by graph traversal (no matrix powers)."""
    return _require_finite(shift).period == 1


def mixing_certificate(shift: ShiftModel) -> MixingCertificate:
    """Certify topological mixing by locating the primitive exponent.

    The graph is classified by :func:`_period` first; only a primitive one
    enters the power walk of :func:`_walk_certificate`.
    """
    status = _mixing_status(_require_finite(shift))
    if status != "mixing":
        return MixingCertificate(status, None)
    return _walk_certificate(shift)


def _walk_certificate(shift: ShiftModel) -> MixingCertificate | None:
    """The mixing certificate read off the bounded power walk, or None when
    no power of the adjacency up to Wielandt's bound (m-1)^2 + 1 is all
    positive, that is, when the shift is not mixing.

    A walk that reaches an all-positive power ends at the primitive
    exponent, so the thresholds are the true ones and the largest is the
    exponent: no period needs deciding first.
    """
    lengths = _edge_thresholds(shift.adjacency.astype(np.float32),
                               slice(None), (shift.n_symbols - 1) ** 2 + 1)
    if not lengths.all():           # no path of some pair at the bound
        return None
    exponent = int(lengths.max())
    lengths += 1                    # edge counts to word lengths
    np.maximum(lengths, 2, out=lengths)
    lengths.setflags(write=False)
    return MixingCertificate("mixing", exponent, shift.symbols, lengths)


# -- compact approximation -------------------------------------------------


class CompactApproximation(NamedTuple):
    """Nested finite mixing subshifts exhausting (part of) an ambient shift.

    ``levels[k]`` is the ambient restriction to the level alphabet;
    ``n_values[k]`` is the connector word-length parameter of level k+1;
    ``connectors[k]`` maps each seed pair (i, j) to its two connector
    interiors (lengths n-1 and n).
    """

    levels: tuple[ShiftModel, ...]
    n_values: tuple[int, ...]
    connectors: tuple[dict, ...]
    certificates: tuple[MixingCertificate, ...]
    ambient_mixing_assumed: bool


def _edge_thresholds(adjf: np.ndarray, rows, cap: int) -> np.ndarray:
    """Per pair (u, v) of ``rows`` (indices, or a slice, into the 0/1
    float32 matrix ``adjf``), the smallest edge count L with paths at every
    length in [L, cap], 0 without a path of length cap.

    The walk holds one power at a time and records, per entry, the last
    length at which it had no path.  It stops early once ``rows`` reach
    every vertex: every column of ``adjf`` holds an edge, so each later
    power is all positive too.
    """
    power = adjf[rows]
    failed = np.zeros(power[:, rows].shape, dtype=np.int64)
    for k in range(1, cap + 1):
        failed[power[:, rows] == 0.0] = k
        if power.all():
            break
        # a sum of nonnegative terms is positive exactly when one term is
        power = power @ adjf
        np.minimum(power, 1.0, out=power)
    failed += 1
    failed[failed > k] = 0          # no path at length k
    return failed


def _feasibility(adjf: np.ndarray, ends, length: int) -> np.ndarray:
    """feas[k, r, v]: from v, r more interior symbols can be placed and then
    ``ends[k]`` reached."""
    feas = np.empty((length + 1, adjf.shape[0], len(ends)), dtype=bool)
    feas[0] = adjf[:, ends] > 0.0
    for r in range(1, length + 1):
        feas[r] = (adjf @ feas[r - 1]) > 0.0
    return np.ascontiguousarray(feas.transpose(2, 0, 1))


# Booleans one step of the batched connector walk may hold.
_WALK_CELLS = 1 << 20


def _plain_interiors(adj: np.ndarray, feas: np.ndarray, starts: np.ndarray,
                     length: int) -> np.ndarray:
    """Lexicographically smallest interior of ``length`` symbols from each
    of ``starts`` to each end of the :func:`_feasibility` table ``feas``:
    row ``i * len(feas) + k`` joins ``starts[i]`` to end k (arbitrary where
    no such interior exists).

    One greedy walk serves every pair at once: at r symbols to go it takes
    the first successor from which r - 1 more symbols reach the pair's end,
    so it never backtracks.  The pairs go in blocks, so no step holds more
    than about ``_WALK_CELLS`` booleans.
    """
    m = adj.shape[0]
    ends = np.tile(np.arange(len(feas)), len(starts))
    at = np.repeat(starts, len(feas))
    words = np.empty((len(at), length), dtype=np.intp)
    block = max(1, _WALK_CELLS // m)
    for lo in range(0, len(at), block):
        v, end = at[lo:lo + block], ends[lo:lo + block]
        for step in range(length):
            v = np.argmax(adj[v] & feas[end, length - 1 - step], axis=1)
            words[lo:lo + block, step] = v
    return words


def _bit_rows(table: np.ndarray) -> list:
    """The rows of a boolean table as Python ints, bit v for column v (so a
    set of symbol indices is one int and its smallest member is its lowest
    bit), in lists nested as the table's leading axes."""
    packed = np.packbits(table, axis=-1, bitorder="little")
    width = packed.shape[-1]
    data = packed.tobytes()
    rows = [int.from_bytes(data[at:at + width], "little")
            for at in range(0, len(data), width)]
    for size in reversed(packed.shape[1:-1]):
        rows = [rows[at:at + size] for at in range(0, len(rows), size)]
    return rows


def _bit_array(bits: int, m: int) -> np.ndarray:
    """The set ``bits`` of indices below m as a boolean array of length m."""
    data = np.frombuffer(bits.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=m, bitorder="little").astype(bool)


def _fresh_feasibility(adjf: np.ndarray, feas: np.ndarray, fresh: int) -> list:
    """Per end of the :func:`_feasibility` table ``feas``, the bit rows of
    fresh_feas[r, v]: a completion of r interior symbols from v to that end
    exists with at least one symbol of the set ``fresh`` in it.  The ends
    go through one matrix product per r."""
    m = adjf.shape[0]
    # [r, v, k]: v is fresh and r more symbols reach end k from it
    through = feas[:, :-1].transpose(1, 2, 0) & _bit_array(fresh, m)[:, None]
    fresh_feas = np.zeros((feas.shape[1], m, len(feas)), dtype=bool)
    for r in range(1, feas.shape[1]):
        np.greater(adjf @ (through[r - 1] | fresh_feas[r - 1]), 0.0,
                   out=fresh_feas[r])
    return _bit_rows(fresh_feas.transpose(2, 0, 1))


def _fresh_interior(rows: list[int], feas: list[int], fresh_feas: list[int],
                    start: int, length: int, fresh: int) -> list[int] | None:
    """Lexicographically smallest interior of ``length`` symbols from
    ``start`` to the end of ``feas`` among those with a symbol of ``fresh``,
    by a greedy walk on bit rows (``rows``: the adjacency; ``feas`` and
    ``fresh_feas``: that end's tables).  Exact reachability spares
    backtracking.

    ``fresh_feas`` may be stale: built under an earlier ``fresh`` that held
    every symbol of today's, it only over-approximates.  At each step the
    walk's candidates then contain the exact walk's, and it takes the
    smallest.  If it ever takes a candidate outside the exact set, that
    symbol is not fresh and no completion from it reaches a fresh symbol,
    so no later step finds one either, and the last step, where only a
    fresh symbol is a candidate (``fresh_feas[0]`` is empty), has none: the
    walk returns None there, or wherever a step has no candidate.  A word
    it returns thus took the exact candidate at every step: it is the
    exact interior.
    """
    word = []
    v = start
    need_fresh = True
    for r in range(length, 0, -1):
        allowed = rows[v] & feas[r - 1]
        if need_fresh:
            allowed &= fresh | fresh_feas[r - 1]
            if not allowed:
                return None
        v = (allowed & -allowed).bit_length() - 1
        need_fresh = need_fresh and not fresh >> v & 1
        word.append(v)
    return word


def _rule_model(rule: AmbientRule, symbols: Sequence[int],
                assumed_mixing: bool) -> ShiftModel:
    """The finite shift of ``rule`` on the ascending ``symbols``, from the
    rule's edge codes."""
    return ShiftModel._from_codes(symbols, rule.edge_codes(np.asarray(symbols)),
                                  ambient=rule, assumed_mixing=assumed_mixing)


def compact_approximation(ambient, k_max: int, seed=None) -> CompactApproximation:
    """Build nested finite mixing subshifts of ``ambient``.

    Level 1 starts from a single seed state.  At each level the construction
    takes the largest per-pair connection length N over the current seed set,
    then for every ordered pair finds one connector interior of length N-1
    and one of length N: the lexicographically smallest one, except that an
    interior through a symbol no earlier pair or level has used is preferred
    where one exists, so successive levels keep growing on countable shifts.
    The pairs are searched in order, each seeing the symbols the ones before
    it added.  Exact-length reachability tables make every search a greedy
    walk without backtracking.  The plain walks of all pairs run as one
    vectorised walk per length.  The fresh-preferring walk runs on bit rows
    where its end's table admits a completion through an unused symbol.
    Those tables are built for every end at once and kept across picks: a
    stale one only over-approximates, so it is rebuilt only when a walk on
    it is rejected (see :func:`_fresh_interior`), and the search stops once
    no unused symbol is left.  The level alphabet is the union of seeds and
    connector symbols; the level shift inherits every ambient edge on it,
    and the power walk of :func:`_walk_certificate` certifies it.

    ``ambient`` may be an :class:`AmbientRule` (countable shift; searches run
    inside an automatically sized working truncation of m symbols, and
    :class:`BudgetExceeded` is raised before allocating one with m**2 above
    ``WORD_BUDGET``) or a finite mixing :class:`ShiftModel`.
    """
    _check_positive_int(k_max, "k_max")
    rule: AmbientRule | None
    if isinstance(ambient, AmbientRule):
        rule = ambient
        assumed = True
        if seed is None:
            seed = 1
        elif (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
              or seed < 1):
            raise ValidationError(
                f"seed must be a positive integer on a countable shift, got {seed!r}")
    elif isinstance(ambient, ShiftModel):
        rule = None
        assumed = False
        status = _mixing_status(ambient)
        if status != "mixing":
            raise ValidationError(
                f"finite ambient shift must be mixing (certificate: {status})")
        seed = ambient.symbols[0 if seed is None else ambient.index(seed)]
    else:
        raise ValidationError("ambient must be an AmbientRule or a ShiftModel")

    seeds: list = [seed]
    levels: list[ShiftModel] = []
    n_values: list[int] = []
    connectors: list[dict] = []
    certificates: list[MixingCertificate] = []

    for _ in range(k_max):
        cap = 4 * len(seeds) + 16
        if rule is not None:
            m = 2 * int(max(seeds)) + cap + 2
            if m * m > WORD_BUDGET:
                raise BudgetExceeded(
                    f"working truncation of {m} symbols exceeds budget "
                    f"{WORD_BUDGET} adjacency entries")
            work = rule.truncate(m)
        else:
            work = ambient
        sym_index = {s: i for i, s in enumerate(work.symbols)}
        adj = work.adjacency.astype(bool)
        # a sum of nonnegative terms is positive exactly when one term is, so
        # float32 decides reachability as well as float64 at half the cost
        adjf = adj.astype(np.float32)
        best = _edge_thresholds(adjf, [sym_index[s] for s in seeds], cap)
        if not best.all():
            pi, pj = np.argwhere(best == 0)[0]
            raise ConstructionFailure(
                f"no connection length within depth bound {cap} for pair "
                f"({seeds[pi]!r}, {seeds[pj]!r})")
        n_k = max(2, int(best.max()) + 1)  # word-length convention

        order = sorted(seeds, key=lambda s: sym_index[s])
        idx = np.array([sym_index[s] for s in order])
        # one table per end serves both connector lengths (n_k - 1 is a prefix)
        feas = _feasibility(adjf, idx, n_k)
        lengths = {"e": n_k - 1, "c": n_k}
        # missing[i, k, t]: no interior of length n_k - 1 + t joins the pair
        missing = ~np.stack([feas[:, n, idx].T for n in lengths.values()], axis=-1)
        if missing.any():
            i, k, t = np.argwhere(missing)[0]
            raise ConstructionFailure(
                f"no connector of interior length {n_k - 1 + t} for pair "
                f"({order[i]!r}, {order[k]!r})")
        plain = {tag: _symbol_tuples(work, _plain_interiors(adj, feas, idx, n))
                 for tag, n in lengths.items()}

        # Every pair keeps its plain interior unless a completion through a
        # fresh symbol exists; the search for one stops once none is left.
        level_connectors = {(a, b): {tag: plain[tag][i * len(order) + k]
                                     for tag in lengths}
                            for i, a in enumerate(order) for k, b in enumerate(order)}
        starts = idx.tolist()
        fresh = (1 << len(work.symbols)) - 1 & ~sum(1 << v for v in starts)
        rows = _bit_rows(adj)
        end_feas = _bit_rows(feas)
        # per end, kept across picks; built under the fresh set of the pairs
        # before, a table only over-approximates, so its 0 is exact
        fresh_feas = _fresh_feasibility(adjf, feas, fresh)
        queries = ((i, k, tag) for i in range(len(order)) for k in range(len(order))
                   for tag in lengths)
        for i, k, tag in queries:
            if not fresh:
                break
            start, length = starts[i], lengths[tag]
            if not fresh_feas[k][length] >> start & 1:
                continue
            interior = _fresh_interior(rows, end_feas[k], fresh_feas[k], start,
                                       length, fresh)
            if interior is None:    # stale: rebuilt, the table is exact
                fresh_feas[k] = _fresh_feasibility(adjf, feas[k:k + 1], fresh)[0]
                if not fresh_feas[k][length] >> start & 1:
                    continue
                interior = _fresh_interior(rows, end_feas[k], fresh_feas[k], start,
                                           length, fresh)
            for v in interior:
                fresh &= ~(1 << v)
            level_connectors[(order[i], order[k])][tag] = tuple(
                work.symbols[v] for v in interior)
        level_symbols = sorted((s for v, s in enumerate(work.symbols)
                                if not fresh >> v & 1), key=_symbol_order)
        if rule is not None:
            model = _rule_model(rule, level_symbols, assumed_mixing=False)
        else:
            model = ambient.restrict(level_symbols)
        # A level is primitive by construction (each seed pair (a, a) closes
        # walks of n_k and n_k + 1 edges, and every level symbol lies on a
        # connector between seeds), so the walk alone certifies it; should
        # it fail, the period names the status.
        cert = _walk_certificate(model)
        if cert is None:
            raise ConstructionFailure(
                f"level shift on alphabet {level_symbols!r} is not mixing "
                f"({_mixing_status(model)})")
        levels.append(model)
        n_values.append(n_k)
        connectors.append(level_connectors)
        certificates.append(cert)
        seeds = level_symbols

    # nesting check (guaranteed by construction; kept as a cheap internal audit)
    for a, b in zip(levels, levels[1:]):
        if not set(a.symbols) <= set(b.symbols):
            raise ConstructionFailure("levels are not nested")
    return CompactApproximation(tuple(levels), tuple(n_values), tuple(connectors),
                                tuple(certificates), assumed)
