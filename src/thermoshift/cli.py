"""Command line front end.

Every command reads a JSON config (--config) and writes JSON (CSV for
``curve``) to --out or stdout.  Outputs are byte-deterministic: keys are
sorted and floats use their shortest round-trip form.

Exit codes: 0 success, 1 invalid input or config, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import NumericalError, ValidationError, config_number
from .measures import gibbs_certificate, gibbs_construct
from .potentials import (constants_report, potential_from_config,
                         summability_report)
from .pressure import (_check_truncation_t, best_pressure,
                       gurevich_estimate, pressure_curve, topological_pressure,
                       transfer_pressure, truncation_curve)
from .shifts import (RULES, compact_approximation, mixing_certificate,
                     shift_from_config)
from .zerotemp import zero_temp_report

SCHEMA_VERSION = 1


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"config is missing required field {key!r}")
    return cfg[key]


_REQUIRED = object()


def _field(cfg: dict, key: str, kind, default=_REQUIRED):
    """``cfg[key]`` (or ``default``) converted by ``kind``, int or float;
    with default None, a field left out or null is None."""
    value = _require(cfg, key) if default is _REQUIRED else cfg.get(key, default)
    if value is None and default is None:
        return None
    return config_number(value, kind, key)


def _check_t(t) -> float:
    t = config_number(t, float, "t")
    if t < 1.0:
        raise ValidationError("t must be at least 1")
    return t


def _t_grid(cfg) -> list:
    grid = _require(cfg, "t_grid")
    if isinstance(grid, dict):
        start = _field(grid, "start", float)
        stop = _field(grid, "stop", float)
        count = _field(grid, "count", int)
        if count < 1 or stop < start:
            raise ValidationError("t_grid: need count >= 1 and stop >= start")
        if count == 1:
            values = [start]
        else:
            step = (stop - start) / (count - 1)
            values = [start + i * step for i in range(count)]
    elif isinstance(grid, list) and grid:
        values = [config_number(x, float, "t_grid") for x in grid]
    else:
        raise ValidationError("t_grid must be a nonempty list or a range object")
    return [_check_t(t) for t in values]


def _word_key(word) -> str:
    return ",".join(str(s) for s in word)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


_quote = json.encoder.encode_basestring_ascii

# The text of each scalar type, looked up by exact type, so that a scalar in
# a container costs no call to _text.  Subclasses (np.float64, say) take
# _text's isinstance fallback, which tries bool before int.
_SCALAR_TEXT = {
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    str: _quote,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else "null",
}


def _text(v, nl: str) -> str:
    """The JSON text of ``v`` nested at the line break ``nl`` ("\\n" plus
    two spaces per level), byte for byte what ``json.dumps`` writes with
    sorted keys and an indent of 2, except that every non-finite float is
    null.  A callable value writes its own text: it is called with the
    line break of its nesting.  A key that is not a str, or another value
    json cannot write, raises TypeError."""
    get = _SCALAR_TEXT.get
    inner = nl + "  "
    if isinstance(v, dict):
        keys = sorted(v)   # distinct str keys: the order of sorted(v.items())
        texts = [f(x) if (f := get(type(x))) else _text(x, inner)
                 for x in map(v.__getitem__, keys)]
        body, brackets = map(": ".join, zip(map(_quote, keys), texts)), "{}"
    elif isinstance(v, (list, tuple)):
        body = [f(x) if (f := get(type(x))) else _text(x, inner) for x in v]
        brackets = "[]"
    else:
        for kind, write in _SCALAR_TEXT.items():
            if isinstance(v, kind):
                return write(v)
        if callable(v):
            return v(nl)
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    if not v:
        return brackets
    return brackets[0] + inner + ("," + inner).join(body) + nl + brackets[1]


def _pair_table_text(names: list, lengths, nl: str) -> str:
    """``_text(table, nl)`` for ``table = {a + "->" + b: lengths[i, j]}``
    over ``a = names[i]``, ``b = names[j]`` (``lengths`` a square numpy
    array), written without building ``table``.

    Each name is quoted once: json escapes character by character, so a
    quoted key is the quoted row name, "->" and the quoted column name.
    Rows go in the order of ``a + "->"`` and columns in the order of the
    names.  When the names are distinct and none contains "->", that is the
    order ``sorted`` gives the keys: neither of two row prefixes a + "->"
    is then a proper prefix of the other, so they decide between keys of
    different rows.  Otherwise the dict is built (a later pair replacing an
    equal key) and its keys sorted."""
    heads = [s + "->" for s in names]
    if not names or len(set(names)) < len(names) or any("->" in s for s in names):
        return _text({a + b: v for a, row in zip(heads, lengths.tolist())
                      for b, v in zip(names, row)}, nl)
    rows = sorted(range(len(names)), key=heads.__getitem__)
    cols = sorted(range(len(names)), key=names.__getitem__)
    # one row: per column, the row's lead (%s), the quoted column name after
    # "->" and the value (%d, the text of an int)
    row_format = "".join("%s" + _quote(names[j])[1:].replace("%", "%%") + ": %d"
                         for j in cols)
    args = [None] * (2 * len(cols))
    body = []
    for i, row in zip(rows, lengths[rows][:, cols].tolist()):
        args[::2] = [",%s  %s->" % (nl, _quote(names[i])[:-1])] * len(cols)
        args[1::2] = row
        body.append(row_format % tuple(args))
    return "{" + "".join(body)[1:] + nl + "}"


def _doc(command: str, fields: dict, shift=None) -> str:
    """The JSON document of ``command``: ``fields`` plus the schema version,
    the command name and, given a shift, its fingerprint.  Strict JSON:
    every non-finite float, at any nesting, becomes null."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    if shift is not None:
        payload["shift_fingerprint"] = shift.fingerprint()
    return _text(payload, "\n") + "\n"


def _shift_pot(cfg):
    shift = shift_from_config(_require(cfg, "shift"))
    pot = potential_from_config(_require(cfg, "potential"))
    return shift, pot


# -- commands --------------------------------------------------------------


# The pressure command's routes, each called as solve(cfg, shift, pot, t,
# n_max).  A lambda looks its solver up when called, so a rebound module name
# is the one that runs.
_ROUTES = {
    "auto": lambda cfg, *args: best_pressure(*args),
    "gurevich": lambda cfg, *args: gurevich_estimate(*args, a=cfg.get("a")),
    "topological": lambda cfg, *args: topological_pressure(*args),
    "transfer": lambda cfg, *args: transfer_pressure(
        *args[:3], depth=_field(cfg, "depth", int, None)),
}


def _cmd_pressure(cfg: dict) -> str:
    route = cfg.get("route", "auto")
    solve = _ROUTES.get(route) if isinstance(route, str) else None
    if solve is None:       # before the shift and potential are built
        raise ValidationError(f"unknown route {route!r}")
    shift, pot = _shift_pot(cfg)
    t = _check_t(_require(cfg, "t"))
    est = solve(cfg, shift, pot, t, _field(cfg, "n_max", int, 12))
    return _doc("pressure", {
        "t": t,
        "route": est.route,
        "value": est.value,
        "n_used": est.n_used,
        "sequence": est.sequence,
    }, shift)


def _cmd_curve(cfg: dict) -> str:
    shift, pot = _shift_pot(cfg)
    ts = _t_grid(cfg)
    n_max = _field(cfg, "n_max", int, 12)
    h = _field(cfg, "h", float, 1e-3)
    curve = pressure_curve(shift, pot, ts, n_max=n_max, h=h)
    lines = ["t,P,L,H,second_diff"]
    for i, p in enumerate(curve.points):
        if 1 <= i <= len(curve.points) - 2:
            sd = repr(curve.second_diffs[i - 1])
        else:
            sd = ""
        lines.append(f"{p.t!r},{p.pressure!r},{p.lyapunov!r},{p.entropy!r},{sd}")
    return "\n".join(lines) + "\n"


def _cmd_gibbs(cfg: dict) -> str:
    shift, pot = _shift_pot(cfg)
    t = _check_t(_require(cfg, "t"))
    n = _field(cfg, "n", int)
    m = _field(cfg, "m", int)
    depth = _field(cfg, "depth", int)
    slack = _field(cfg, "slack", float, 1e-2)
    n_max = _field(cfg, "n_max", int, max(n, 8))
    mu = gibbs_construct(shift, pot, t, n, m, depth)
    pressure = best_pressure(shift, pot, t, n_max=n_max).value
    cert = gibbs_certificate(shift, pot, t, mu, pressure,
                             range(1, depth + 1), slack=slack)
    return _doc("gibbs", {
        "t": t,
        "n": n,
        "m": m,
        "depth": depth,
        "source": mu.source,
        "pressure": pressure,
        "invariance_defect": mu.invariance_defect(),
        "masses": {_word_key(w): v for w, v in mu.weights.items()},
        "certificate": {
            "c_lower": cert.c_lower,
            "c_upper": cert.c_upper,
            "bound": cert.bound,
            "slack": cert.slack,
            "passed": cert.passed,
            "worst_word": _word_key(cert.worst_word),
        },
    }, shift)


def _cmd_approx(cfg: dict) -> str:
    ambient_cfg = _require(cfg, "ambient")
    if isinstance(ambient_cfg, dict) and "rule" in ambient_cfg and \
            "truncation" not in ambient_cfg:
        rule_name = ambient_cfg["rule"]
        rule = RULES.get(rule_name) if isinstance(rule_name, str) else None
        if rule is None:
            raise ValidationError(f"ambient.rule: unknown rule {rule_name!r}")
        ambient = rule()
    else:
        ambient = shift_from_config(ambient_cfg)
    k_max = _field(cfg, "k_max", int)
    # validate the pressure block before the (expensive) construction
    with_pressure = "potential" in cfg and "t" in cfg
    if with_pressure:
        pot = potential_from_config(cfg["potential"])
        t = _check_t(cfg["t"])
        n_max = _field(cfg, "n_max", int, 12)
        _check_truncation_t(pot, t)
    approx = compact_approximation(ambient, k_max, seed=cfg.get("seed"))
    levels = []
    for level, n_k, conns in zip(approx.levels, approx.n_values,
                                 approx.connectors):
        levels.append({
            "alphabet": [str(s) for s in level.symbols],
            "n": n_k,
            "connectors": {
                f"{a}->{b}": {"e": [str(s) for s in found["e"]],
                              "c": [str(s) for s in found["c"]]}
                for (a, b), found in sorted(conns.items(),
                                            key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
            },
        })
    fields = {
        "k_max": k_max,
        "ambient_mixing_assumed": approx.ambient_mixing_assumed,
        "levels": levels,
    }
    if with_pressure:
        curve = truncation_curve(approx, pot, t, n_max=n_max)
        fields["pressure"] = {
            "t": t,
            "sizes": list(curve.sizes),
            "values": list(curve.pressures),
            "gaps": list(curve.gaps),
            "monotone": curve.monotone,
        }
    return _doc("approx", fields)


def _cmd_zerotemp(cfg: dict) -> str:
    shift, pot = _shift_pot(cfg)
    ts = _t_grid(cfg)
    depth = _field(cfg, "depth", int, 6)
    delta = _field(cfg, "delta", float, 1e-4)
    leak_tol = _field(cfg, "leak_tol", float, 1e-2)
    lyap_tol = _field(cfg, "lyap_tol", float, 1e-2)
    entropy_tol = _field(cfg, "entropy_tol", float, 1e-2)
    rep = zero_temp_report(shift, pot, ts, depth=depth, delta=delta,
                           leak_tol=leak_tol)
    checks = {
        "lyapunov": rep.lyapunov_gap <= lyap_tol,
        "entropy": rep.entropy_gap <= entropy_tol,
        "leakage": rep.leak_ok,
    }
    checks["all_pass"] = all(checks.values())
    return _doc("zerotemp", {
        "beta": rep.beta,
        "t_max": rep.t_max,
        "lyapunov_gap": rep.lyapunov_gap,
        "entropy_gap": rep.entropy_gap,
        "leakage": rep.leakage,
        "leak_ok": rep.leak_ok,
        "checks": checks,
        "tolerances": {"leak_tol": leak_tol, "lyap_tol": lyap_tol,
                       "entropy_tol": entropy_tol, "delta": delta,
                       "depth": depth},
        "subshift": {
            "symbols": [str(s) for s in rep.subshift.symbols],
            "edges": [[str(a), str(b)] for a, b in rep.subshift.edges],
            "entropy": rep.subshift.entropy,
            "cycles": [[str(s) for s in c] for c in rep.subshift.cycles],
        },
        "rows": [{"t": r.t, "P": r.pressure, "L": r.lyapunov, "H": r.entropy}
                 for r in rep.trace.rows],
        "clusters": [list(c) for c in rep.trace.clusters],
    }, shift)


def _cmd_certify(cfg: dict) -> str:
    shift, pot = _shift_pot(cfg)
    depth = _field(cfg, "depth", int, 6)
    t = _check_t(cfg.get("t", 1.0))
    word_budget = _field(cfg, "word_budget", int, 500_000)
    # constants_report checks depth before any work, so a bad depth costs
    # no certificate
    rep = constants_report(shift, pot, depth, word_budget=word_budget)
    cert = mixing_certificate(shift)
    summ = summability_report(pot, t, shift=shift)
    thresholds = None if cert.lengths is None else functools.partial(
        _pair_table_text, [str(s) for s in cert.symbols], cert.lengths)
    return _doc("certify", {
        "mixing": {
            "status": cert.status,
            "primitive_exponent": cert.primitive_exponent,
            "thresholds": thresholds,
        },
        "constants": {
            "aa_emp": rep.aa_emp,
            "bv_emp": rep.bv_emp,
            "declared_aa": rep.declared_aa,
            "declared_bv": rep.declared_bv,
            "within_declared": rep.within_declared,
            "sup_f1": rep.sup_f1,
            "variation_by_depth": list(rep.variation_by_depth),
            "depths_scanned": rep.depths_scanned,
            "budget_hit": rep.budget_hit,
        },
        "summability": {
            "verdict": summ.verdict,
            "partial_sum": summ.partial_sum,
            "tail_bound": summ.tail_bound,
            "t": summ.t,
            "t_variant_summable": summ.t_variant_summable,
        },
    }, shift)


_COMMANDS = {
    "pressure": _cmd_pressure,
    "curve": _cmd_curve,
    "gibbs": _cmd_gibbs,
    "approx": _cmd_approx,
    "zerotemp": _cmd_zerotemp,
    "certify": _cmd_certify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="thermoshift",
        description="Pressure, Gibbs states and zero-temperature limits on "
                    "Markov shifts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pressure", "pressure of t*F by a chosen or automatic route"),
        ("curve", "t -> (P, L, H) samples with a convexity check (CSV)"),
        ("gibbs", "constructive Gibbs measure with a cylinder-ratio certificate"),
        ("approx", "nested finite mixing approximations of a countable shift"),
        ("zerotemp", "annealing trace against the maximizing-cycle data"),
        ("certify", "mixing certificate plus empirical potential constants"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        text = _COMMANDS[args.command](cfg)
        _emit(text, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
