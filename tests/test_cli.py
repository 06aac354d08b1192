"""End-to-end runs of the command line front end via main(argv)."""

import csv
import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (CylinderMeasure, LocallyConstant, ShiftModel, cli,
                         gibbs_construct, shifts)
from thermoshift.cli import main

PHI = (1 + math.sqrt(5)) / 2

GOLDEN_PRESSURE = {
    "shift": {"alphabet": [0, 1], "edges": [[0, 0], [0, 1], [1, 0]]},
    "potential": {"family": "locally_constant", "table": {"0": 0.0, "1": 0.0}},
    "t": 1.0,
    "route": "auto",
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, tmp_path, command, payload, extra=()):
    code = main([command, "--config", write_cfg(tmp_path, payload), *extra])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pressure_golden_mean(capsys, tmp_path):
    code, out, err = run(capsys, tmp_path, "pressure", GOLDEN_PRESSURE)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(math.log(PHI), abs=1e-6)
    assert doc["route"] == "transfer"
    assert doc["t"] == 1.0
    assert "shift_fingerprint" in doc


def test_pressure_rejects_low_t(capsys, tmp_path):
    cfg = dict(GOLDEN_PRESSURE, t=0.5)
    code, out, err = run(capsys, tmp_path, "pressure", cfg)
    assert code == 1
    assert "t must be at least 1" in err


def test_missing_field_is_a_usage_error(capsys, tmp_path):
    cfg = {"shift": GOLDEN_PRESSURE["shift"], "t": 2.0}
    code, _, err = run(capsys, tmp_path, "pressure", cfg)
    assert code == 1
    assert "potential" in err


def test_malformed_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["pressure", "--config", str(path)])
    out = capsys.readouterr()
    assert code == 1
    assert "error:" in out.err


def test_numerical_failure_exit_code(capsys, tmp_path):
    # a pure 2-cycle has period 2, so the spectral route must refuse
    cfg = {
        "shift": {"alphabet": [0, 1], "edges": [[0, 1], [1, 0]]},
        "potential": {"family": "locally_constant",
                      "table": {"0": 0.0, "1": 0.0}},
        "t": 1.0,
        "route": "transfer",
    }
    code, _, err = run(capsys, tmp_path, "pressure", cfg)
    assert code == 2
    assert "numerical failure" in err


def test_transfer_block_depth_is_under_the_word_budget(capsys, tmp_path):
    # the 9^7 edges of the depth-6 block exceed the word budget
    cfg = {
        "shift": {"alphabet": 9, "edges": "full"},
        "potential": {"family": "locally_constant",
                      "table": {str(s): -0.1 * s for s in range(9)}},
        "t": 1.0,
        "route": "transfer",
        "depth": 6,
    }
    code, out, err = run(capsys, tmp_path, "pressure", cfg)
    assert code == 2 and out == ""
    assert "exceeded budget" in err and "at length 7" in err


@pytest.mark.parametrize("route", ["gurevich", "topological"])
def test_pressure_walk_is_under_the_word_budget(capsys, tmp_path, route):
    # a billion log-domain steps are refused before the first one
    cfg = dict(GOLDEN_PRESSURE, route=route, n_max=1e9)
    code, out, err = run(capsys, tmp_path, "pressure", cfg)
    assert code == 2 and out == ""
    assert "log-domain walk" in err and "exceeds budget" in err


def test_one_symbol_loop_is_under_the_entries_bound(capsys, tmp_path,
                                                    monkeypatch):
    # one word per length, 3 array entries each: with the budget at 1500
    # the engine's 24 000-entry bound stops the scan at length 8001
    monkeypatch.setattr(shifts, "WORD_BUDGET", 1500)
    cfg = {
        "shift": {"alphabet": [0], "edges": [[0, 0]]},
        "potential": {"family": "matrix_cocycle",
                      "matrices": {"0": [[1.0, 2.0], [3.0, 1.0]]}},
        "t": 1.0,
        "n_max": 100_000,
    }
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "pressure", cfg)
    assert time.perf_counter() - start < 3.0
    assert code == 2 and out == ""
    assert "24000 array entries" in err and "at length 8001" in err


def test_output_is_deterministic(capsys, tmp_path):
    _, first, _ = run(capsys, tmp_path, "pressure", GOLDEN_PRESSURE)
    _, second, _ = run(capsys, tmp_path, "pressure", GOLDEN_PRESSURE)
    assert first == second
    assert first.endswith("\n")


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    cfg = write_cfg(tmp_path, GOLDEN_PRESSURE)
    code = main(["pressure", "--config", cfg, "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["value"] == pytest.approx(math.log(PHI), abs=1e-6)


def test_curve_csv(capsys, tmp_path):
    cfg = {
        "shift": {"alphabet": [0, 1], "edges": "full"},
        "potential": {"family": "locally_constant",
                      "table": {"0": 0.0, "1": -1.0}},
        "t_grid": {"start": 1.0, "stop": 3.0, "count": 5},
    }
    code, out, err = run(capsys, tmp_path, "curve", cfg)
    assert code == 0, err
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["t", "P", "L", "H", "second_diff"]
    assert len(rows) == 6
    for row in rows[1:]:
        t = float(row[0])
        assert float(row[1]) == pytest.approx(math.log(1 + math.exp(-t)),
                                              abs=1e-10)
    # endpoints carry no curvature estimate
    assert rows[1][4] == "" and rows[5][4] == ""
    assert float(rows[3][4]) > 0


def test_zerotemp_verdict(capsys, tmp_path):
    cfg = {
        "shift": {"alphabet": [0, 1], "edges": "full"},
        "potential": {"family": "locally_constant",
                      "table": {"0": 0.0, "1": -1.0}},
        "t_grid": [1.0, 2.0, 5.0, 10.0],
        "depth": 6,
    }
    code, out, err = run(capsys, tmp_path, "zerotemp", cfg)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["beta"] == 0.0
    assert doc["checks"]["all_pass"] is True
    assert doc["subshift"]["symbols"] == ["0"]
    assert doc["lyapunov_gap"] < 1e-4
    assert len(doc["rows"]) == 4
    assert [r["t"] for r in doc["rows"]] == [10.0, 5.0, 2.0, 1.0]


def test_gibbs_masses_normalized(capsys, tmp_path):
    cfg = {
        "shift": {"alphabet": [0, 1], "edges": [[0, 0], [0, 1], [1, 0]]},
        "potential": {"family": "locally_constant",
                      "table": {"0": 0.0, "1": -1.0}},
        "t": 1.0,
        "n": 8,
        "m": 1,
        "depth": 4,
    }
    code, out, err = run(capsys, tmp_path, "gibbs", cfg)
    assert code == 0, err
    doc = json.loads(out)
    total = math.fsum(doc["masses"].values())
    assert total == pytest.approx(1.0, abs=1e-12)
    assert doc["certificate"]["passed"] is True
    assert doc["invariance_defect"] > 0


@pytest.mark.parametrize("table", [{"0": 100, "1": 100.5},
                                   {"0": -100, "1": -99.5}])
def test_gibbs_survives_large_potential_values(capsys, tmp_path, table):
    cfg = {
        "shift": {"alphabet": 2, "edges": "full"},
        "potential": {"family": "locally_constant", "table": table},
        "t": 1.0,
        "n": 8,
        "m": 2,
        "depth": 3,
    }
    code, out, err = run(capsys, tmp_path, "gibbs", cfg)
    assert code == 0, err
    doc = json.loads(out)
    # the shift-invariant closed form: Bernoulli with p(1) = 1 / (1 + e^-0.5)
    p1 = 1.0 / (1.0 + math.exp(-0.5))
    assert len(doc["masses"]) == 8
    for key, mass in doc["masses"].items():
        ones = key.split(",").count("1")
        assert mass == pytest.approx(p1 ** ones * (1 - p1) ** (3 - ones),
                                     rel=1e-12)
    assert doc["certificate"]["passed"] is True


def test_approx_levels(capsys, tmp_path):
    cfg = {"ambient": {"rule": "renewal"}, "k_max": 3}
    code, out, err = run(capsys, tmp_path, "approx", cfg)
    assert code == 0, err
    doc = json.loads(out)
    assert [lv["alphabet"] for lv in doc["levels"]] == [
        ["1", "2", "3"],
        [str(i) for i in range(1, 8)],
        [str(i) for i in range(1, 16)]]
    assert doc["levels"][0]["n"] == 2
    assert doc["levels"][0]["connectors"]["1->1"] == {"c": ["3", "2"],
                                                      "e": ["2"]}
    assert doc["ambient_mixing_assumed"] is True


def test_approx_with_pressure_block(capsys, tmp_path):
    cfg = {
        "ambient": {"rule": "renewal"},
        "k_max": 3,
        "potential": {"family": "decay", "law": "log", "coef": 2.0},
        "t": 2.0,
    }
    code, out, err = run(capsys, tmp_path, "approx", cfg)
    assert code == 0, err
    doc = json.loads(out)
    block = doc["pressure"]
    assert block["monotone"] is True
    assert block["sizes"] == [3, 7, 15]
    assert len(block["values"]) == 3
    assert block["values"][-1] >= block["values"][0] - 1e-9


def test_approx_on_an_alphabet_of_integers_and_strings(capsys, tmp_path):
    # shift_from_config accepts such an alphabet; the level order sorts
    # integers before strings
    cfg = {"ambient": {"alphabet": [0, "a"], "edges": "full"}, "k_max": 1}
    code, out, err = run(capsys, tmp_path, "approx", cfg)
    assert code == 0, err
    doc = json.loads(out, parse_constant=_strict)
    assert doc["levels"][0]["alphabet"] == ["0", "a"]
    assert doc["levels"][0]["connectors"]["0->0"] == {"c": ["0", "0"], "e": ["a"]}


@pytest.mark.parametrize("command, fields", [
    ("gibbs", {"t": 1.0, "n": 4, "m": 1, "depth": 2}),
    ("zerotemp", {"t_grid": [1.0, 2.0], "depth": 2}),
])
def test_word_documents_on_an_alphabet_of_integers_and_strings(
        capsys, tmp_path, command, fields):
    # no route orders the words or edges by comparing symbols
    cfg = {"shift": {"alphabet": [0, "a"], "edges": "full"},
           "potential": {"family": "locally_constant",
                         "table": {"0": -0.5, "a": 0.0}}, **fields}
    code, out, err = run(capsys, tmp_path, command, cfg)
    assert code == 0, err
    doc = json.loads(out, parse_constant=_strict)
    if command == "gibbs":
        assert sorted(doc["masses"]) == ["0,0", "0,a", "a,0", "a,a"]
    else:
        assert doc["subshift"]["edges"] == [["a", "a"]]
        assert doc["subshift"]["cycles"] == [["a"]]


@pytest.mark.parametrize("route", ["spectral", ["transfer"], None])
def test_pressure_checks_the_route_before_building(capsys, tmp_path, monkeypatch,
                                                   route):
    def forbidden(*args, **kwargs):
        raise AssertionError("built before the route was checked")

    monkeypatch.setattr(cli, "shift_from_config", forbidden)
    monkeypatch.setattr(cli, "potential_from_config", forbidden)
    cfg = dict(GOLDEN_PRESSURE, route=route, shift={"rule": "renewal"})
    code, out, err = run(capsys, tmp_path, "pressure", cfg)
    assert (code, out) == (1, "")
    assert err == f"error: unknown route {route!r}\n"


@pytest.mark.parametrize("route, name", [
    ("auto", "best_pressure"), ("gurevich", "gurevich_estimate"),
    ("topological", "topological_pressure"), ("transfer", "transfer_pressure")])
def test_pressure_routes_call_the_module_names(capsys, tmp_path, monkeypatch,
                                               route, name):
    # each route looks its solver up when called, so a rebound name runs
    calls = []
    original = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    code, out, err = run(capsys, tmp_path, "pressure",
                         dict(GOLDEN_PRESSURE, route=route))
    assert (code, err) == (0, "")
    assert calls == [name]


def test_approx_validates_before_construction(capsys, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("compact_approximation ran before validation")

    monkeypatch.setattr(cli, "compact_approximation", forbidden)
    base = {"ambient": {"rule": "full"}, "k_max": 3,
            "potential": {"family": "decay", "law": "log", "coef": 2.0}}
    for bad in ({"t": 0.5}, {"t": 2.0, "potential": {"family": "nope"}},
                {"t": 2.0, "n_max": "x"}):
        code, out, err = run(capsys, tmp_path, "approx", dict(base, **bad))
        assert code == 1 and out == ""
        assert err.startswith("error:")
    # the truncation curve's own preconditions, checked up front too
    code, out, err = run(capsys, tmp_path, "approx", dict(base, t=1.0))
    assert (code, out) == (1, "") and "t must exceed 1" in err
    divergent = {"family": "decay", "law": "log", "coef": 0.6}
    code, out, err = run(capsys, tmp_path, "approx",
                         dict(base, t=1.5, potential=divergent))
    assert (code, out) == (2, "") and "series diverges" in err


def test_approx_rejects_symbols_that_print_the_same(capsys, tmp_path):
    # 1 and "1" would share one alphabet entry and one connector key
    cfg = {"ambient": {"alphabet": [1, "1"], "edges": "full"}, "k_max": 2}
    code, out, err = run(capsys, tmp_path, "approx", cfg)
    assert (code, out) == (1, "")
    assert "print the same" in err


@pytest.mark.parametrize("command, payload", [
    ("approx", {"ambient": {"rule": "renewal"}, "k_max": "x"}),
    ("approx", {"ambient": {"rule": "renewal"}, "k_max": None}),
    ("pressure", dict(GOLDEN_PRESSURE, n_max="x")),
    ("curve", {**GOLDEN_PRESSURE, "t_grid": [1.0, 2.0], "h": "x"}),
    ("curve", {**GOLDEN_PRESSURE, "t_grid": {"start": 1.0, "stop": 2.0,
                                             "count": None}}),
    ("curve", {**GOLDEN_PRESSURE, "t_grid": [1.0, "x"]}),
    ("gibbs", {**GOLDEN_PRESSURE, "n": [4], "m": 1, "depth": 2}),
    ("gibbs", {**GOLDEN_PRESSURE, "n": 4, "m": 1, "depth": 2, "slack": "x"}),
    ("zerotemp", {**GOLDEN_PRESSURE, "t_grid": [1.0], "depth": 1e400}),
    ("certify", {**GOLDEN_PRESSURE, "word_budget": "lots"}),
    ("certify", {**GOLDEN_PRESSURE, "potential": {
        "family": "locally_constant", "table": {"0": "NaN", "1": 0}}}),
    ("pressure", dict(GOLDEN_PRESSURE, t=math.nan)),
    ("pressure", dict(GOLDEN_PRESSURE, t=True)),
    ("pressure", dict(GOLDEN_PRESSURE, route="topological", n_max=True)),
    ("pressure", {**GOLDEN_PRESSURE, "potential": {
        "family": "locally_constant", "depth": 1.7, "table": {"0": 0, "1": 0}}}),
    ("pressure", dict(GOLDEN_PRESSURE, shift={"rule": "full", "truncation": True})),
    ("pressure", dict(GOLDEN_PRESSURE, route="transfer", depth="x")),
    ("pressure", dict(GOLDEN_PRESSURE, route="transfer", depth=1.5)),
    ("gibbs", {**GOLDEN_PRESSURE, "n": 4.5, "m": 1, "depth": 2}),
    ("approx", {"ambient": {"rule": "renewal"}, "k_max": 2, "seed": "x"}),
    ("approx", {"ambient": {"rule": "renewal"}, "k_max": 2, "seed": 0}),
    ("approx", {"ambient": {"rule": "renewal"}, "k_max": 2, "seed": True}),
    ("approx", {"ambient": GOLDEN_PRESSURE["shift"], "k_max": 2, "seed": 7}),
    ("pressure", dict(GOLDEN_PRESSURE, shift={"alphabet": [[0], [1]], "edges": "full"})),
    ("pressure", dict(GOLDEN_PRESSURE, shift={"alphabet": [0, 1], "edges": [[0]]})),
    ("zerotemp", {**GOLDEN_PRESSURE, "t_grid": [1.0], "delta": -1}),
    ("pressure", dict(GOLDEN_PRESSURE, route="spectral")),
    ("approx", {"ambient": {"rule": "cubic"}, "k_max": 2}),
    ("curve", {**GOLDEN_PRESSURE, "t_grid": {"start": 2.0, "stop": 1.0, "count": 3}}),
    ("curve", {**GOLDEN_PRESSURE, "t_grid": {"start": 1.0, "stop": 2.0, "count": 0}}),
    ("curve", {**GOLDEN_PRESSURE, "t_grid": []}),
    ("pressure", [GOLDEN_PRESSURE]),
    ("pressure", dict(GOLDEN_PRESSURE, shift=[[0, 1], [1, 0]])),
    ("pressure", dict(GOLDEN_PRESSURE, potential="flat")),
    ("pressure", dict(GOLDEN_PRESSURE, shift={"alphabet": [0, 1]})),
    ("pressure", dict(GOLDEN_PRESSURE, potential={
        "family": "decay", "law": "cubic", "coef": 2.0})),
    ("pressure", dict(GOLDEN_PRESSURE, potential={
        "family": "decay", "law": "log", "coef": -1.0})),
    ("certify", dict(GOLDEN_PRESSURE, potential={
        "family": "matrix_cocycle",
        "matrices": {"0": [[1.0]], "1": [[1.0, 1.0], [1.0, 1.0]]}})),
    ("pressure", dict(GOLDEN_PRESSURE, potential={
        "family": "locally_constant", "depth": 0, "table": {"0": 0.0}})),
    ("pressure", dict(GOLDEN_PRESSURE, route="transfer", depth=1, potential={
        "family": "locally_constant", "depth": 2,
        "table": {"0,0": 0.0, "0,1": -1.0, "1,0": 0.5}})),
])
def test_non_numeric_field_is_a_usage_error(capsys, tmp_path, command, payload):
    code, out, err = run(capsys, tmp_path, command, payload)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_unreadable_config_is_a_usage_error(capsys, tmp_path):
    code = main(["pressure", "--config", str(tmp_path / "missing.json")])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err.startswith("error: cannot read config")


def test_one_point_range_grid(capsys, tmp_path):
    grid = {"start": 1.5, "stop": 1.5, "count": 1}
    code, out, err = run(capsys, tmp_path, "curve",
                         {**GOLDEN_PRESSURE, "t_grid": grid})
    assert (code, err) == (0, "")
    rows = list(csv.reader(out.splitlines()))
    assert [row[0] for row in rows] == ["t", "1.5"]


def test_exit_codes_through_the_module_entry_point(tmp_path):
    # ``python -m thermoshift.cli`` hands main()'s return to sys.exit
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    divergent = {"ambient": {"rule": "renewal"}, "k_max": 2, "t": 1.5,
                 "potential": {"family": "decay", "law": "log", "coef": 0.5}}
    for command, payload, want, message in [
            ("pressure", dict(GOLDEN_PRESSURE, route="spectral"), 1,
             "error: unknown route"),
            ("approx", divergent, 2, "numerical failure: the t-scaled")]:
        proc = subprocess.run(
            [sys.executable, "-m", "thermoshift.cli", command,
             "--config", write_cfg(tmp_path, payload)],
            env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (want, ""), proc.stderr
        assert proc.stderr.startswith(message)


def test_certify_reports_constants(capsys, tmp_path):
    cfg = {
        "shift": {"alphabet": [0, 1], "edges": "full"},
        "potential": {
            "family": "matrix_cocycle",
            "matrices": {"0": [["1", "1"], ["1", "1"]],
                         "1": [["2", "1"], ["1", "1"]]},
        },
        "depth": 6,
    }
    code, out, err = run(capsys, tmp_path, "certify", cfg)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["mixing"]["status"] == "mixing"
    assert doc["constants"]["within_declared"] is True
    assert doc["summability"]["verdict"] == "summable"


def test_certify_validates_depth_before_the_certificate(capsys, tmp_path,
                                                       monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("mixing_certificate ran before validation")

    monkeypatch.setattr(cli, "mixing_certificate", forbidden)
    cfg = {"shift": {"rule": "renewal", "truncation": 400},
           "potential": {"family": "decay", "law": "log", "coef": 2.0},
           "depth": 1}
    code, out, err = run(capsys, tmp_path, "certify", cfg)
    assert (code, out) == (1, "")
    assert err == "error: constants_report needs depth >= 2\n"


def _strict(constant):
    raise ValueError(f"non-JSON constant {constant}")


_DECAY_CERTIFY = {"shift": {"rule": "renewal", "truncation": 5},
                  "potential": {"family": "decay", "law": "log", "coef": 1.7},
                  "depth": 3}


@pytest.mark.parametrize("offset, t", [(0.0, 1e300), (1.0, 800.0)],
                         ids=["huge_t", "overflow_t"])
def test_certify_summability_survives_a_large_t(capsys, tmp_path, offset, t):
    potential = dict(_DECAY_CERTIFY["potential"], offset=offset)
    docs = []
    for at in (t, 1.0):
        code, out, err = run(capsys, tmp_path, "certify",
                             dict(_DECAY_CERTIFY, potential=potential, t=at))
        assert code == 0, err
        docs.append(json.loads(out, parse_constant=_strict)["summability"])
    assert docs[0].pop("t") == t and docs[1].pop("t") == 1.0
    assert docs[0].pop("t_variant_summable") and docs[1].pop("t_variant_summable")
    assert docs[0] == docs[1]


@pytest.mark.parametrize("law, coef", [("linear", 1e-20), ("log", 1e308)],
                         ids=["linear_tiny", "coef_huge"])
def test_certify_decay_tails_at_extreme_coefficients(capsys, tmp_path, law, coef):
    # a linear rate whose 1 - e^{-c} rounds to 0, and a log law whose
    # products pass the float range
    potential = {"family": "decay", "law": law, "coef": coef}
    code, out, err = run(capsys, tmp_path, "certify",
                         dict(_DECAY_CERTIFY, potential=potential))
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=_strict)
    assert doc["summability"]["verdict"] == "summable"


@pytest.mark.parametrize("budget, message", [
    (0, "word_budget must be a positive integer, got 0"),
    (-5, "word_budget must be a positive integer, got -5"),
    (True, "word_budget must be an integer, got True")])
def test_certify_rejects_a_budget_that_scans_nothing(capsys, tmp_path, budget,
                                                     message):
    code, out, err = run(capsys, tmp_path, "certify",
                         dict(_DECAY_CERTIFY, word_budget=budget))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_certify_with_a_one_word_budget(capsys, tmp_path):
    code, out, err = run(capsys, tmp_path, "certify",
                         dict(_DECAY_CERTIFY, word_budget=1))
    assert code == 0, err
    constants = json.loads(out)["constants"]
    assert constants["budget_hit"] is True
    assert constants["depths_scanned"] < 3


def test_non_finite_values_are_null_in_strict_json(capsys, tmp_path):
    # no period-1 orbit runs through symbol 1, so the n = 1 entry is -inf
    cfg = dict(GOLDEN_PRESSURE, route="gurevich", a=1, n_max=4)
    code, out, err = run(capsys, tmp_path, "pressure", cfg)
    assert code == 0, err
    doc = json.loads(out, parse_constant=_strict)
    assert doc["sequence"][0] == [1, None]
    assert all(v is not None for _, v in doc["sequence"][1:])


# -- the document writer against json.dumps --------------------------------


def _finite_or_null(x):
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return x


def _json_dumps_text(payload) -> str:
    """The oracle: a copy with non-finite floats as None, then the
    standard library's sorted, indented, strict dump."""
    return json.dumps(_finite_or_null(payload), sort_keys=True, indent=2,
                      allow_nan=False)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), _TEXT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64))
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_TEXT, _TREES, max_size=4))
def test_writer_matches_the_standard_library_dump(payload):
    assert cli._text(payload, "\n") == _json_dumps_text(payload)


def test_writer_keeps_subclasses_and_empties():
    class Name(str):
        pass

    payload = {"b": [], "a": {}, "c": ((), [{}]), Name("é\n"): Name("\x00ü"),
               "f": [np.float64("nan"), np.float64(0.1), -0.0, 1e300 * 10],
               "z": [True, False, None, 10 ** 30]}
    assert cli._text(payload, "\n") == _json_dumps_text(payload)


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, np.bool_(True)])
def test_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        _json_dumps_text({"v": value})
    with pytest.raises(TypeError):
        cli._text({"v": value}, "\n")


def _joined_table(names, lengths):
    """The thresholds dict as certify built it before: later pairs replace
    equal keys."""
    return {a + "->" + b: v for a, row in zip(names, lengths.tolist())
            for b, v in zip(names, row)}


def _assert_pair_table_text(names, lengths):
    # at certify's nesting: the document, then "mixing", then "thresholds"
    def doc(table):
        return {"mixing": {"thresholds": table}}

    written = cli._text(doc(functools.partial(cli._pair_table_text, names,
                                              lengths)), "\n")
    table = _joined_table(names, lengths)
    assert written == json.dumps(doc(table), sort_keys=True, indent=2)
    assert written == cli._text(doc(table), "\n")


@pytest.mark.parametrize("names", [
    [str(i) for i in range(1, 13)],             # "1->" sorts before "10->"
    ["b", "a-", "a", "a!", "a b", "é", 'q"', "back\\slash", "-", ""],
    ["a", "a->b", "b", "b->a"],                 # "->" inside a name: sorted keys
    ["1", "1", "2"],                            # names that print the same
    ["x"], [],
], ids=["integers", "punctuation", "arrows", "repeated", "one", "none"])
def test_pair_table_writer_matches_the_dict_and_json_dumps(names):
    rng = np.random.default_rng(len(names))
    lengths = rng.integers(-3, 200, size=(len(names), len(names)))
    _assert_pair_table_text(names, lengths)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text("ab->é\"\\ %1", max_size=4), max_size=5), st.data())
def test_pair_table_writer_matches_json_dumps_on_any_names(names, data):
    lengths = np.array(data.draw(st.lists(
        st.lists(st.integers(-10, 10 ** 6), min_size=len(names),
                 max_size=len(names)), min_size=len(names), max_size=len(names))),
        dtype=np.int64).reshape(len(names), len(names))
    _assert_pair_table_text(names, lengths)


def _assert_masses_text(mu):
    # at gibbs's nesting: the document, then "masses"
    written = cli._text({"masses": functools.partial(
        cli._masses_text, [str(s) for s in mu.shift.symbols], mu.rows,
        mu.masses)}, "\n")
    table = {cli._word_key(w): v for w, v in mu.weights.items()}
    assert written == cli._text({"masses": table}, "\n")
    if np.isfinite(mu.masses).all():
        assert written == json.dumps({"masses": table}, sort_keys=True, indent=2)


def _cesaro(shift, depth, seed):
    rng = np.random.default_rng(seed)
    table = {(a, b): float(v) for (a, b), v in zip(
        ((a, b) for a in shift.symbols for b in shift.symbols),
        rng.uniform(-1.0, 0.0, shift.n_symbols ** 2))}
    pot = LocallyConstant(table, 2)
    return gibbs_construct(shift, pot, 1.3, depth + 1, 2, depth)


@pytest.mark.parametrize("symbols, depth", [
    (list(range(12)), 2),                       # "10" sorts before "2"
    (["b", "a-", "a", "é", 'q"', "back\\slash", "", "%1"], 3),
    ([1, "1", "a,b", "a", "b"], 3),             # words that print the same
], ids=["twelve", "strings", "colliding"])
def test_masses_writer_matches_the_dict(symbols, depth):
    shift = ShiftModel(tuple(symbols), np.ones((len(symbols),) * 2, dtype=int))
    mu = _cesaro(shift, depth, len(symbols))
    _assert_masses_text(mu)
    # the same masses given in shuffled order: rows are no longer in
    # lexicographic order of indices
    items = list(mu.weights.items())
    random.Random(len(symbols)).shuffle(items)
    _assert_masses_text(CylinderMeasure.from_weights(shift, depth, dict(items)))


def _assert_connectors_text(approx):
    # at approx's nesting: the document, "levels", a level, "connectors";
    # the reference is the dict of each level's pairs in (str(a), str(b))
    # order, a later pair replacing an earlier one that spells its key
    for level, conns in zip(approx.levels, approx.connectors, strict=True):
        written = cli._text({"levels": [{"connectors": functools.partial(
            cli._connectors_text, level.symbols, [str(s) for s in level.symbols],
            conns)}]}, "\n")
        table = {f"{a}->{b}": {"e": [str(s) for s in found["e"]],
                               "c": [str(s) for s in found["c"]]}
                 for (a, b), found in sorted(
                     conns.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))}
        want = {"levels": [{"connectors": table}]}
        assert written == cli._text(want, "\n")
        assert written == json.dumps(want, sort_keys=True, indent=2)


@pytest.mark.parametrize("ambient, k_max, seed", [
    (shifts.RenewalRule(), 3, 2),
    (shifts.FullShiftRule(), 2, 10),            # "10" sorts before "2"
    (ShiftModel.full(6, ["b", "a-", 'q"', "back\\slash", "é", "%1"]), 3, None),
    (ShiftModel.full(4, ["a->", "b", "a", "->b"]), 3, None),  # a->->b twice
    (ShiftModel.full(3, [1, "1", "a"]), 2, None),              # 1->1 four times
], ids=["renewal", "full", "strings", "arrow_keys", "same_names"])
def test_connectors_writer_matches_the_dict(ambient, k_max, seed):
    _assert_connectors_text(shifts.compact_approximation(ambient, k_max, seed))


def test_certify_on_a_cocycle_whose_products_vanish(capsys, tmp_path):
    # A0·A0 underflows to 0 in one multiplication: a numerical failure,
    # not a traceback
    matrices = {"0": [["1e-200", "1e-200"], ["1e-200", "1e-200"]],
                "1": [["1", "1"], ["1", "1"]]}
    code, out, err = run(capsys, tmp_path, "certify", {
        "shift": {"alphabet": 2, "edges": "full"},
        "potential": {"family": "matrix_cocycle", "matrices": matrices},
        "depth": 4})
    assert (code, out) == (2, "")
    assert err == ("numerical failure: cocycle products leave the float range "
                   "at length 2\n")


def test_masses_writer_writes_non_finite_masses_as_null():
    shift = ShiftModel.full(3)
    mu = _cesaro(shift, 2, 0)
    masses = mu.masses.copy()
    masses[[1, 4]] = [math.nan, math.inf]
    _assert_masses_text(CylinderMeasure(shift, 2, mu.rows, masses))


def test_writer_rejects_a_key_that_is_not_a_string():
    # json.dumps would write "1"; no document has such a key
    with pytest.raises(TypeError):
        cli._text({"v": {1: "int key"}}, "\n")


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_matches_golden_document(capsys, name):
    command = name.split("_")[0]
    code = main([command, "--config", str(ROOT / "configs" / f"{name}.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (ROOT / "tests" / "golden" / f"{name}.out").read_bytes()


def test_unknown_command_rejected(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.json"])


@pytest.mark.parametrize("h", [0, -0.001])
def test_curve_rejects_a_nonpositive_step(capsys, tmp_path, h):
    cfg = json.loads((ROOT / "configs" / "curve_bernoulli.json").read_text())
    code, out, err = run(capsys, tmp_path, "curve", dict(cfg, h=h))
    assert code == 1 and out == ""
    assert err.startswith("error: h must be")


def test_parser_is_built_once_with_unchanged_messages(capsys):
    assert cli.build_parser() is cli.build_parser()
    fresh = cli.build_parser.__wrapped__()
    for argv in (["frobnicate", "--config", "x.json"], ["approx"], ["--help"],
                 ["curve", "--help"]):
        texts = []
        for parse in (lambda: main(argv), lambda: fresh.parse_args(argv)):
            with pytest.raises(SystemExit) as exc:
                parse()
            out = capsys.readouterr()
            texts.append((exc.value.code, out.out, out.err))
        assert texts[0] == texts[1]
