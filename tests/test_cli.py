"""End-to-end runs of the command line front end via main(argv)."""

import csv
import json
import math
from pathlib import Path

import pytest

from thermoshift import cli
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
])
def test_non_numeric_field_is_a_usage_error(capsys, tmp_path, command, payload):
    code, out, err = run(capsys, tmp_path, command, payload)
    assert code == 1 and out == ""
    assert err.startswith("error:")


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


def test_non_finite_values_are_null_in_strict_json(capsys, tmp_path):
    # no period-1 orbit runs through symbol 1, so the n = 1 entry is -inf
    cfg = dict(GOLDEN_PRESSURE, route="gurevich", a=1, n_max=4)
    code, out, err = run(capsys, tmp_path, "pressure", cfg)
    assert code == 0, err
    doc = json.loads(out, parse_constant=_strict)
    assert doc["sequence"][0] == [1, None]
    assert all(v is not None for _, v in doc["sequence"][1:])


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
