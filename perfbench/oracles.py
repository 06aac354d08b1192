"""Independent checks of every task result.

Nothing here imports thermoshift.  The references are closed forms (golden
mean quadratic, Bernoulli-type full-shift sums, the renewal equation),
numpy eigen-solves of weight matrices built here from the raw config,
exhaustive enumeration vectorised over all words, exhaustive simple cycles,
a max-plus Floyd-Warshall certificate for Karp, and structural checks of
compact approximations against the rule's edge relation.

``judge(spec, record)`` returns ``(status, message, digest)``: status is
"ok", "failed" (the program raised or exited non-zero) or "wrong" (it
returned something the oracle rejects, or a document that is not strict
JSON).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np


class Mismatch(Exception):
    pass


def _close(name, got, want, rel=1e-9, abs_=0.0):
    if got is None or not math.isfinite(got) or \
            abs(got - want) > abs_ + rel * max(1.0, abs(want)):
        raise Mismatch(f"{name}: got {got!r}, want {want!r}")


def _require(name, cond):
    if not cond:
        raise Mismatch(name)


def _strict_json(text: str):
    def reject(token):
        raise Mismatch(f"document contains non-strict JSON constant {token}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"document is not JSON: {exc}") from None


# -- shared numerics --------------------------------------------------------


def _words(k: int, n: int) -> np.ndarray:
    """All words of length n over k symbols, lexicographic (row i = code i)."""
    return np.indices((k,) * n).reshape(n, -1).T


def _codes(w: np.ndarray, k: int) -> np.ndarray:
    return (w * (k ** np.arange(w.shape[1] - 1, -1, -1))).sum(axis=1)


def _table(cfg: dict, k: int) -> np.ndarray:
    depth = cfg.get("depth", 1)
    T = np.full((k,) * depth, np.nan)
    for key, v in cfg["table"].items():
        T[tuple(int(s) for s in key.split(","))] = float(v)
    return T


def _matrices(cfg: dict) -> np.ndarray:
    mats = cfg["matrices"]
    return np.array([[[float(x) for x in row] for row in mats[str(s)]]
                     for s in range(len(mats))])


def _adjacency(shift_cfg: dict):
    """(symbols, 0/1 adjacency) of an explicit or rule-based shift config."""
    if "rule" in shift_cfg:
        syms = list(range(1, shift_cfg["truncation"] + 1))
        return syms, _rule_adjacency(shift_cfg["rule"], syms)
    alpha = shift_cfg["alphabet"]
    syms = list(range(alpha)) if isinstance(alpha, int) else list(alpha)
    n = len(syms)
    if shift_cfg["edges"] == "full":
        return syms, np.ones((n, n))
    idx = {s: i for i, s in enumerate(syms)}
    A = np.zeros((n, n))
    for a, b in shift_cfg["edges"]:
        A[idx[a], idx[b]] = 1.0
    return syms, A


def _edge(rule: str, i: int, j: int) -> bool:
    return True if rule == "full" else (i == 1 or j == i - 1)


def _rule_adjacency(rule: str, syms) -> np.ndarray:
    return np.array([[1.0 if _edge(rule, i, j) else 0.0 for j in syms] for i in syms])


def _log_rho(B: np.ndarray) -> float:
    return math.log(float(np.max(np.linalg.eigvals(B).real)))


def _primitive_exponent(A: np.ndarray):
    m = A.shape[0]
    power = A > 0
    history = []
    for k in range(1, (m - 1) ** 2 + 2):
        history.append(power)
        if power.all():
            return k, history
        power = (power.astype(float) @ (A > 0).astype(float)) > 0
    return None, history


def _decay(cfg: dict, syms) -> np.ndarray:
    i = np.asarray(syms, dtype=float)
    f = -cfg["coef"] * (np.log(i) if cfg.get("law", "log") == "log" else i)
    return cfg.get("offset", 0.0) + f


def _renewal(cfg: dict, t: float, n: int):
    """Pressure and its t-derivative on the renewal truncation {1..n} from
    the first-return equation sum_j exp(t S_j - j p) = 1."""
    j = np.arange(1, n + 1, dtype=float)
    S = np.cumsum(_decay(cfg, j))
    a = t * S
    p = float(np.max(a / j))          # every term <= 1 here, so g(p) >= 0
    for _ in range(200):
        x = a - j * p
        mx = x.max()
        w = np.exp(x - mx)
        g = mx + math.log(w.sum())
        step = g / ((j * w).sum() / w.sum())
        p += step
        if abs(step) <= 1e-16 * max(1.0, abs(p)):
            break
    w = np.exp(a - j * p - (a - j * p).max())
    return p, float((S * w).sum() / (j * w).sum())


def _stationary(B: np.ndarray, f: np.ndarray, t: float):
    """(P, L, H) of the Markov equilibrium of the weight matrix B."""
    vals, right = np.linalg.eig(B)
    i = int(np.argmax(vals.real))
    lv, left = np.linalg.eig(B.T)
    il = int(np.argmax(lv.real))
    r = np.abs(right[:, i].real)
    l = np.abs(left[:, il].real)
    pi = l * r / (l * r).sum()
    P = math.log(vals[i].real)
    L = float(pi @ f)
    return P, L, P - t * L


def _lc2_sup(T: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sup of f_n over [w] for a depth-2 table on a full shift."""
    total = T.max(axis=1)[W[:, -1]]
    for i in range(W.shape[1] - 1):
        total = total + T[W[:, i], W[:, i + 1]]
    return total


def _cesaro(T: np.ndarray, t: float, n: int, m: int, depth: int) -> np.ndarray:
    """Depth-d masses of the m-shift average of the sup-weight measure."""
    k = T.shape[0]
    W = _words(k, n)
    x = t * _lc2_sup(T, W)
    nu = np.exp(x - x.max())
    nu /= nu.sum()
    mu = np.zeros(k ** depth)
    for j in range(m):
        mu += np.bincount(_codes(W[:, j:j + depth], k), weights=nu / m,
                          minlength=k ** depth)
    return mu / mu.sum()


def _prefix(mu: np.ndarray, k: int, depth: int, n: int) -> np.ndarray:
    return mu.reshape(k ** n, k ** (depth - n)).sum(axis=1)


def _cocycle_lognorms(A: np.ndarray, n_max: int) -> list:
    """log max-row-sum norm of A_w for every word, per length 1..n_max."""
    out = [None]
    P = A.copy()
    for n in range(1, n_max + 1):
        if n > 1:
            P = np.einsum("wij,sjk->wsik", P, A).reshape(-1, *A.shape[1:])
        out.append(np.log(np.abs(P).sum(axis=2).max(axis=1)))
    return out


# -- checks per task kind ---------------------------------------------------


def cocycle_topological(spec, res):
    A = _matrices(spec["potential"])
    logs = _cocycle_lognorms(A, spec["n_max"])
    seq = res["sequence"]
    _require("sequence length", len(seq) == spec["n_max"])
    for n, v in seq:
        ln = logs[n]
        mx = ln.max()
        _close(f"P_{n}", v, (mx + math.log(np.exp(ln - mx).sum())) / n, rel=1e-10)
    # Covering bound around the closed form P(1) = log rho(sum A_i).
    M = A.sum(axis=0)
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(vals.real))
    r = np.abs(vecs[:, i].real)
    r /= r.max()
    n_used = min(seq, key=lambda p: p[1])[0]
    lo = math.log(vals[i].real) + math.log(r.sum() / M.shape[0]) / n_used
    hi = math.log(vals[i].real) + math.log(r.sum() / r.min()) / n_used
    _require(f"value {res['value']} outside covering bound [{lo}, {hi}]",
             lo - 1e-12 <= res["value"] <= hi + 1e-12)


def lc_topological(spec, res):
    T = _table(spec["potential"], 3)
    E = np.exp(spec["t"] * T)
    v = E.max(axis=1)
    for n, got in res["sequence"]:
        _close(f"P_{n}", got, math.log(v.sum()) / n, rel=1e-10)
        v = E @ v
    _close("value", res["value"], min(p[1] for p in res["sequence"]), rel=0.0)


def gibbs_doc(spec, doc):
    cfg = spec["config"]
    k, t, n, m, d = 3, cfg["t"], cfg["n"], cfg["m"], cfg["depth"]
    T = _table(cfg["potential"], k)
    mu = _cesaro(T, t, n, m, d)
    masses = doc["masses"]
    _require("mass keys", len(masses) == k ** d)
    got = np.zeros(k ** d)
    for key, v in masses.items():
        got[_codes(np.array([[int(s) for s in key.split(",")]]), k)[0]] = v
    err = float(np.max(np.abs(got - mu) / mu))
    _require(f"masses off by relative {err:.3e}", err <= 1e-9)
    P = _log_rho(np.exp(t * T))
    _close("pressure", doc["pressure"], P, rel=1e-10)
    short = _prefix(mu, k, d, d - 1)
    pre = mu.reshape(k, k ** (d - 1)).sum(axis=0)
    _close("invariance_defect", doc["invariance_defect"],
           float(np.max(np.abs(pre - short))), rel=1e-6, abs_=1e-15)
    ratios = []
    for L in range(1, d + 1):
        mu_n = _prefix(mu, k, d, L)
        ratios.append(mu_n * np.exp(L * P - t * _lc2_sup(T, _words(k, L))))
    ratios = np.concatenate(ratios)
    cert = doc["certificate"]
    bound = math.exp(t * (T.max() - T.min())) * (1.0 + cfg["slack"])
    _close("c_lower", cert["c_lower"], float(ratios.min()), rel=1e-8)
    _close("c_upper", cert["c_upper"], float(ratios.max()), rel=1e-8)
    _close("bound", cert["bound"], bound, rel=1e-12)
    _require("passed", cert["passed"] == bool(ratios.max() <= bound and ratios.min() > 0))


def measure_stats(spec, res):
    k, d = 3, spec["depth"]
    T = _table(spec["potential"], k)
    mu = _cesaro(T, spec["t"], spec["n"], spec["m"], d)
    _require("sequence lengths", len(res["entropy"]) == len(res["lyapunov"])
             == spec["n_max"])
    for (n, H, ratio), (n2, a_n) in zip(res["entropy"], res["lyapunov"]):
        mu_n = _prefix(mu, k, d, n)
        pos = mu_n[mu_n > 0]
        want = float(-(pos * np.log(pos)).sum())
        _close(f"H_{n}", H, want, rel=1e-9)
        _close(f"H_{n}/n", ratio, want / n, rel=1e-9)
        _close(f"a_{n}", a_n, float(mu_n @ _lc2_sup(T, _words(k, n))) / n, rel=1e-9)


def _cocycle_aa(A: np.ndarray, depth: int) -> float:
    logs = _cocycle_lognorms(A, depth)
    k = A.shape[0]
    worst = 0.0
    for n in range(2, depth + 1):
        code = np.arange(k ** n)
        for j in range(1, n):
            tail = k ** (n - j)
            defect = np.abs(logs[n] - logs[j][code // tail] - logs[n - j][code % tail])
            worst = max(worst, float(defect.max()))
    return worst


def certify_cocycle_doc(spec, doc):
    cfg = spec["config"]
    A = _matrices(cfg["potential"])
    k, depth = A.shape[0], cfg["depth"]
    mix = doc["mixing"]
    _require("mixing status", mix["status"] == "mixing" and mix["primitive_exponent"] == 1)
    _require("thresholds", mix["thresholds"] == {f"{a}->{b}": 2 for a in range(k)
                                                 for b in range(k)})
    c = doc["constants"]
    aa = _cocycle_aa(A, depth)
    declared = float(max(np.log(m.max() / m.min()) for m in A))
    _close("aa_emp", c["aa_emp"], aa, rel=1e-9, abs_=1e-12)
    _close("declared_aa", c["declared_aa"], declared, rel=1e-12)
    _require("variation", c["bv_emp"] == 0.0 and c["variation_by_depth"] == [0.0] * depth)
    _require("scan extent", c["depths_scanned"] == depth and c["budget_hit"] is False)
    _require("within_declared", c["within_declared"] == (aa <= declared + 1e-12))
    norms = np.abs(A).sum(axis=2).max(axis=1)
    _close("sup_f1", c["sup_f1"], float(np.log(norms).max()), rel=1e-12)
    s = doc["summability"]
    _require("summability verdict", s["verdict"] == "summable")
    _close("partial_sum", s["partial_sum"], float(norms.sum()), rel=1e-12)


def renewal_pressure(spec, res):
    p, _ = _renewal(spec["potential"], spec["t"], spec["shift"]["truncation"])
    _require("route", res["route"] == "transfer")
    _close("pressure", res["value"], p, rel=1e-9)


def renewal_rpf(spec, res):
    t = spec["t"]
    p, L = _renewal(spec["potential"], t, spec["shift"]["truncation"])
    _close("pressure", res["pressure"], p, rel=1e-9)
    _close("lyapunov", res["lyapunov"], L, rel=1e-8)
    _close("entropy", res["entropy"], p - t * L, rel=1e-8)


def renewal_curve_doc(spec, text):
    cfg = spec["config"]
    rows = list(csv.reader(io.StringIO(text)))
    _require("curve header", rows[0] == ["t", "P", "L", "H", "second_diff"])
    grid = cfg["t_grid"]
    count = grid["count"]
    step = (grid["stop"] - grid["start"]) / (count - 1)
    ts = [grid["start"] + i * step for i in range(count)]
    _require("curve rows", len(rows) == count + 1)
    ref = [_renewal(cfg["potential"], t, cfg["shift"]["truncation"]) for t in ts]
    for i, (row, t, (P, L)) in enumerate(zip(rows[1:], ts, ref)):
        vals = [float(x) for x in row[:4]]
        _require("finite curve values", all(math.isfinite(v) for v in vals))
        _close(f"t[{i}]", vals[0], t, rel=1e-15)
        _close(f"P[{i}]", vals[1], P, rel=1e-9)
        _close(f"L[{i}]", vals[2], L, rel=1e-5)   # central difference, h = 1e-3
        _close(f"H[{i}]", vals[3], P - t * L, rel=1e-5, abs_=1e-5 * t)
        if 1 <= i <= count - 2:
            left = (ref[i][0] - ref[i - 1][0]) / (ts[i] - ts[i - 1])
            right = (ref[i + 1][0] - ref[i][0]) / (ts[i + 1] - ts[i])
            _close(f"second_diff[{i}]", float(row[4]),
                   2.0 * (right - left) / (ts[i + 1] - ts[i - 1]), rel=1e-6, abs_=1e-8)
        else:
            _require("endpoint curvature is blank", row[4] == "")


def lc_block_pressure(spec, res):
    k = spec["shift"]["alphabet"]
    T = _table(spec["potential"], k)
    r = T.ndim
    states = _words(k, r)
    B = np.zeros((len(states), len(states)))
    for i, u in enumerate(states):
        for s in range(k):
            j = _codes(np.array([list(u[1:]) + [s]]), k)[0]
            B[i, j] = math.exp(spec["t"] * T[tuple(u)])
    _require("route", res["route"] == "transfer")
    _close("pressure", res["value"], _log_rho(B), rel=1e-10)


def anneal_full(spec, res):
    k, depth = spec["shift"]["alphabet"], spec["depth"]
    f = _table(spec["potential"], k)
    rows = res["rows"]
    _require("rows by decreasing t", [r["t"] for r in rows] == sorted(spec["ts"], reverse=True))
    for row in rows:
        t = row["t"]
        x = t * f
        P = float(x.max() + math.log(np.exp(x - x.max()).sum()))
        p = np.exp(x - P)
        L = float(p @ f)
        _close(f"P(t={t})", row["P"], P, rel=1e-10)
        _close(f"L(t={t})", row["L"], L, rel=1e-9)
        _close(f"H(t={t})", row["H"], P - t * L, rel=1e-9)
        marg = row["marginal"]
        _require("marginal support", len(marg) == k ** depth)
        words = np.array([[int(x) for x in w.split(",")] for w, _ in marg])
        want = np.prod(p[words], axis=1)
        got = np.array([v for _, v in marg])
        _require("marginal masses", float(np.max(np.abs(got - want))) <= 1e-12)


def _pressure_doc(doc, route):
    _require("command", doc["command"] == "pressure")
    _require(f"route {doc['route']!r}", doc["route"] == route)


def golden_mean_doc(spec, doc):
    cfg = spec["config"]
    a, b = cfg["potential"]["table"]["0"], cfg["potential"]["table"]["1"]
    t = cfg["t"]
    _pressure_doc(doc, "transfer")
    x = math.exp(t * (a - b) / 2.0)        # b > a, so x <= 1
    P = t * (a + b) / 2.0 + math.log((x + math.sqrt(x * x + 4.0)) / 2.0)
    _close("pressure (golden-mean quadratic)", doc["value"], P, rel=1e-9)


def gurevich_doc(spec, doc):
    cfg = spec["config"]
    _, A = _adjacency(cfg["shift"])
    f = _table(cfg["potential"], 2)
    B = np.exp(cfg["t"] * f)[:, None] * A
    _pressure_doc(doc, "gurevich")
    u = np.array([1.0, 0.0])
    logscale = 0.0
    seq = doc["sequence"]
    _require("sequence length", len(seq) == cfg["n_max"])
    for n, got in seq:
        u = u @ B
        s = u.sum()
        logscale += math.log(s)
        u /= s
        _close(f"P_{n}", got, (logscale + math.log(u[0])) / n, rel=1e-10)
    _close("value", doc["value"], seq[-1][1], rel=0.0)


def _simple_cycles(A: np.ndarray) -> list:
    n = A.shape[0]
    out = []
    for s in range(n):
        stack = [(s, [s])]
        while stack:
            v, path = stack.pop()
            for u in np.flatnonzero(A[v]):
                u = int(u)
                if u == s:
                    out.append(path)
                elif u > s and u not in path:
                    stack.append((u, path + [u]))
    return out


def zerotemp_doc(spec, doc):
    cfg = spec["config"]
    syms, A = _adjacency(cfg["shift"])
    f = _table(cfg["potential"], len(syms))
    cycles = _simple_cycles(A)
    means = [float(np.mean(f[c])) for c in cycles]
    beta = max(means)
    keep = [c for c, mu in zip(cycles, means) if mu >= beta - 1e-9]
    edges = {(c[i], c[(i + 1) % len(c)]) for c in keep for i in range(len(c))}
    sub_syms = sorted({s for c in keep for s in c})
    _close("beta", doc["beta"], beta, rel=1e-12)
    sub = doc["subshift"]
    _require("subshift symbols", sub["symbols"] == [str(s) for s in sub_syms])
    _require("subshift edges", sorted(map(tuple, sub["edges"]))
             == sorted((str(a), str(b)) for a, b in edges))
    idx = {s: i for i, s in enumerate(sub_syms)}
    S = np.zeros((len(sub_syms), len(sub_syms)))
    for a, b in edges:
        S[idx[a], idx[b]] = 1.0
    _close("subshift entropy", sub["entropy"], _log_rho(S), rel=1e-9, abs_=1e-12)
    ts = sorted(set(cfg["t_grid"]), reverse=True)
    _require("rows", [r["t"] for r in doc["rows"]] == ts)
    for row in doc["rows"]:
        t = row["t"]
        P, L, H = _stationary(np.exp(t * f)[:, None] * A, f, t)
        _close(f"P(t={t})", row["P"], P, rel=1e-9)
        _close(f"L(t={t})", row["L"], L, rel=1e-8, abs_=1e-10)
        _close(f"H(t={t})", row["H"], H, rel=1e-8, abs_=1e-10)
    _close("lyapunov_gap", doc["lyapunov_gap"], abs(doc["rows"][0]["L"] - beta),
           rel=1e-9, abs_=1e-12)


def karp(spec, res):
    syms, A = _adjacency(spec["shift"])
    f = _table(spec["potential"], len(syms))
    cyc = res["cycle"]
    beta = res["beta"]
    n = len(syms)
    _require("cycle is simple", len(set(cyc)) == len(cyc) and len(cyc) >= 1)
    _require("cycle follows edges", all(A[cyc[i], cyc[(i + 1) % len(cyc)]]
                                        for i in range(len(cyc))))
    _close("cycle mean", float(np.mean(f[cyc])), beta, rel=1e-9)
    # Max-plus closure of f(u) - beta - slack: a positive diagonal entry
    # would be a cycle whose mean beats beta.
    D = np.where(A > 0, f[:, None] - beta - 1e-9, -np.inf)
    for k in range(n):
        D = np.maximum(D, D[:, k:k + 1] + D[k:k + 1, :])
    _require("no cycle mean exceeds beta", float(np.max(np.diag(D))) <= 0.0)


def _check_levels(rule, start, k_max, levels, n_values, connectors):
    """Structure of a compact approximation; ``connectors[k]`` maps (a, b)
    to (e, c) interiors."""
    _require("level count", len(levels) == len(n_values) == len(connectors) == k_max)
    _require("start symbol in level 1", start in levels[0])
    seeds = [start]
    for k, (level, n_k, conns) in enumerate(zip(levels, n_values, connectors)):
        if k:
            _require(f"level {k + 1} nests level {k}", set(levels[k - 1]) <= set(level))
        _require(f"level {k + 1} connector pairs",
                 sorted(conns) == sorted((a, b) for a in seeds for b in seeds))
        alphabet = set(seeds)
        for (a, b), (e, c) in conns.items():
            _require(f"connector lengths {a}->{b}", len(e) == n_k - 1 and len(c) == n_k)
            for interior in (e, c):
                path = [a, *interior, b]
                _require(f"connector {path} admissible under the rule",
                         all(_edge(rule, u, v) for u, v in zip(path, path[1:])))
                alphabet.update(interior)
        _require(f"level {k + 1} alphabet", sorted(alphabet) == sorted(level))
        exp, _ = _primitive_exponent(_rule_adjacency(rule, sorted(level)))
        _require(f"level {k + 1} is mixing", exp is not None)
        seeds = sorted(level)


def compact(spec, res):
    conns = [{(a, b): (e, c) for a, b, e, c in level} for level in res["connectors"]]
    _check_levels(spec["rule"], spec["seed"], spec["k_max"], res["levels"],
                  res["n_values"], conns)
    for k, (level, (status, exponent)) in enumerate(zip(res["levels"], res["certificates"])):
        exp, _ = _primitive_exponent(_rule_adjacency(spec["rule"], sorted(level)))
        _require(f"level {k + 1} certificate", status == "mixing" and exponent == exp)


def approx_doc(spec, doc):
    cfg = spec["config"]
    rule = cfg["ambient"]["rule"]
    levels = [[int(s) for s in lv["alphabet"]] for lv in doc["levels"]]
    conns = []
    for lv in doc["levels"]:
        table = {}
        for key, found in lv["connectors"].items():
            a, b = (int(s) for s in key.split("->"))
            table[(a, b)] = ([int(s) for s in found["e"]], [int(s) for s in found["c"]])
        conns.append(table)
    _check_levels(rule, cfg["seed"], cfg["k_max"], levels,
                  [lv["n"] for lv in doc["levels"]], conns)
    pr = doc["pressure"]
    t = cfg["t"]
    want = []
    for level in levels:
        B = np.exp(t * _decay(cfg["potential"], level))[:, None] * \
            _rule_adjacency(rule, level)
        want.append(_log_rho(B))
    _require("sizes", pr["sizes"] == [len(lv) for lv in levels])
    for i, (got, w) in enumerate(zip(pr["values"], want)):
        _close(f"level {i + 1} pressure", got, w, rel=1e-9)
    _require("truncation curve is monotone",
             pr["monotone"] is True and all(g >= -1e-9 for g in pr["gaps"]))


def certify_renewal_doc(spec, doc):
    cfg = spec["config"]
    syms, A = _adjacency(cfg["shift"])
    gamma, history = _primitive_exponent(A)
    mix = doc["mixing"]
    _require("mixing status", mix["status"] == "mixing" and mix["primitive_exponent"] == gamma)
    ok = np.ones(A.shape, dtype=bool)
    thr = np.full(A.shape, gamma)
    for L in range(gamma, 0, -1):
        ok &= history[L - 1]
        thr[ok] = L
    want = {f"{a}->{b}": max(2, int(thr[i, j]) + 1)
            for i, a in enumerate(syms) for j, b in enumerate(syms)}
    _require("mixing thresholds", mix["thresholds"] == want)
    c = doc["constants"]
    depth = cfg["depth"]
    _require("additive constants vanish", c["aa_emp"] == 0.0 and c["bv_emp"] == 0.0
             and c["variation_by_depth"] == [0.0] * depth and c["within_declared"] is True)
    pot = cfg["potential"]
    _close("sup_f1", c["sup_f1"], float(_decay(pot, [1])[0]), rel=1e-12, abs_=1e-15)
    s = doc["summability"]
    coef = pot["coef"]
    _require("summability verdict", s["verdict"] == ("summable" if coef > 1 else "not-summable"))
    terms = 10_000
    _close("partial_sum", s["partial_sum"],
           math.fsum(np.exp(_decay(pot, range(1, terms + 1)))), rel=1e-12)
    _close("tail_bound", s["tail_bound"], terms ** (1.0 - coef) / (coef - 1.0), rel=1e-9)


CHECKS = {f.__name__: f for f in (
    cocycle_topological, lc_topological, gibbs_doc, measure_stats,
    certify_cocycle_doc, renewal_pressure, renewal_rpf, renewal_curve_doc,
    lc_block_pressure, anneal_full, golden_mean_doc, gurevich_doc, zerotemp_doc,
    karp, compact, approx_doc, certify_renewal_doc)}


def judge(spec: dict, rec: dict):
    """(status, message, document digest or None) for one task record."""
    if "error" in rec:
        return "failed", rec["error"], None
    res = rec["result"]
    digest = None
    try:
        if spec["op"] == "cli":
            digest = hashlib.sha256(res["doc"].encode()).hexdigest()
            if res["exit"] != 0:
                return "failed", f"exit {res['exit']}: {res['stderr'].strip()}", digest
            payload = res["doc"] if spec["cmd"] == "curve" else _strict_json(res["doc"])
            CHECKS[spec["check"]](spec, payload)
        else:
            CHECKS[spec["check"]](spec, res)
    except (Mismatch, KeyError, TypeError, ValueError, IndexError) as exc:
        return "wrong", f"{type(exc).__name__}: {exc}", digest
    return "ok", "", digest
