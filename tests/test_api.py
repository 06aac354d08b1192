"""The package surface that the benchmark harness under ``perfbench/`` calls
and patches.  The harness is not imported here; these names are its
contract, so a pruning change that breaks one fails in the test suite
instead of silently in a traced benchmark run."""

import ast
import importlib
import inspect
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoshift
from thermoshift import (CylinderMeasure, DecayPotential, LocallyConstant,
                         RenewalRule, ShiftModel, admissible_words, anneal, cli,
                         compact_approximation, constants_report,
                         entropy_estimate, entropy_tail_bound,
                         gibbs_certificate, linalg, lyapunov,
                         marginal_bound_check, max_mean_cycle, measures,
                         mixing_certificate, potentials, pressure,
                         pressure_curve, rpf_equilibrium, shifts,
                         summability_report, tight_set, transfer_pressure,
                         truncation_curve, zero_temp_report)

# Package-root names the benchmark worker calls.
WORKER_NAMES = (
    "shift_from_config", "potential_from_config", "topological_pressure",
    "transfer_pressure", "rpf_equilibrium", "gibbs_construct",
    "entropy_estimate", "lyapunov", "anneal", "max_mean_cycle",
    "compact_approximation", "RenewalRule", "FullShiftRule",
)
FAMILIES = ("LocallyConstant", "DecayPotential", "MatrixCocycle", "AffinePotential")
# Per-layer names the tracer builds from something other than a public
# module function: per-word counters and the ``from_weights`` classmethod.
AGGREGATED = {"potentials.sup", "potentials.inf", "potentials.at_periodic",
              "measures.rpf_mass", "measures.from_weights"}
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SRC = Path(thermoshift.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in thermoshift.__all__
               if not hasattr(thermoshift, name)]
    assert missing == []


def test_worker_entry_points_exist():
    for name in WORKER_NAMES:
        assert callable(getattr(thermoshift, name)), name


def test_traced_attributes_exist(golden_mean, bernoulli):
    # per-word counters patch these in each family's own class dict
    for fam in FAMILIES:
        cls = getattr(potentials, fam)
        for meth in ("sup", "inf", "at_periodic"):
            assert meth in vars(cls), f"{fam}.{meth}"
    assert "mass" in vars(measures.RPFEquilibrium)
    # re-wrapped through ``__func__``; the key count reads the weights argument
    from_weights = vars(measures.CylinderMeasure)["from_weights"]
    assert isinstance(from_weights, classmethod)
    params = list(inspect.signature(from_weights.__func__).parameters)
    assert params[:4] == ["cls", "shift", "depth", "weights"]
    assert set(cli._COMMANDS) == {"pressure", "curve", "gibbs", "approx",
                                  "zerotemp", "certify"}
    # the block-state count is len(result[0])
    states = pressure.weighted_block_matrix(golden_mean, bernoulli, 1.0, depth=2)[0]
    assert states == admissible_words(golden_mean, 2)


def test_spectral_solves_pass_their_dimension(monkeypatch, golden_mean,
                                              bernoulli):
    # the tracer's dim_sum adds len(args[0]) of every power_iteration call,
    # and its block-state count adds len(weighted_block_matrix(...)[0])
    seen = []
    original = linalg.power_iteration

    def spy(*args, **kwargs):
        seen.append(len(args[0]))
        return original(*args, **kwargs)

    for mod in (thermoshift, linalg, pressure, measures):
        if vars(mod).get("power_iteration") is original:
            monkeypatch.setattr(mod, "power_iteration", spy)
    for depth in (1, 2, 3):
        states = pressure.weighted_block_matrix(golden_mean, bernoulli, 1.0,
                                                depth=depth)[0]
        assert states == admissible_words(golden_mean, depth)
        seen.clear()
        pressure.transfer_pressure(golden_mean, bernoulli, 1.0, depth=depth)
        assert seen == [len(states)]
        seen.clear()
        measures.rpf_equilibrium(golden_mean, bernoulli, 1.0, depth=depth)
        assert seen == [len(states), len(states)]


def test_word_engine_is_a_traced_span(golden_mean):
    # the tracer wraps every public function of a module in a span; a list
    # return (not a generator) keeps the enumeration inside that span
    engine = vars(shifts)["word_levels"]
    assert inspect.isfunction(engine)
    assert engine.__module__ == "thermoshift.shifts"
    assert isinstance(engine(golden_mean, 3), list)


def test_per_layer_metrics_name_public_functions():
    # the tracer reports <module>.<function>.{calls,self_s,s} for every public
    # function it wraps; a metric whose function is gone stops a traced run
    spec = json.loads(BENCHMARK.read_text())
    missing = []
    for metric in spec["per_layer"]:
        hit = re.fullmatch(r"(\w+)\.(\w+)\.(calls|self_s|s)", metric["name"])
        if hit is None:
            continue
        mod, fn = hit.group(1), hit.group(2)
        if f"{mod}.{fn}" in AGGREGATED or (mod == "cli" and fn in cli._COMMANDS):
            continue
        module = importlib.import_module(f"thermoshift.{mod}")
        obj = getattr(module, fn, None)
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not fn.startswith("_")):
            missing.append(metric["name"])
    assert missing == []


def test_every_module_import_is_used():
    # a name a module imports and never reads is a leftover of a removed path
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = [(alias.asname or alias.name).split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def test_no_dense_linear_algebra():
    # every spectral solve runs on edge arrays (linalg.power_iteration); a
    # dense numpy.linalg call would scale with the square of the states
    dense = re.compile(r"\b(np|numpy)\.linalg\b|from numpy import linalg")
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if dense.search(p.read_text())] == []


def test_import_loads_every_module_and_no_dataclasses():
    # the CLI's import is its start-up cost: every module loads eagerly (no
    # lazy submodule defers work to the first call), and no result type runs
    # dataclass code generation
    code = "import sys, thermoshift.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    modules = {f"thermoshift.{p.stem}" for p in SRC.glob("*.py")
               if p.name != "__init__.py"}
    assert modules and modules <= loaded
    assert "dataclasses" not in loaded


# -- result types ------------------------------------------------------------

# Field names in order, as the dataclasses of earlier versions declared them
# (less their private engine state).  The results are NamedTuples; the types
# with validation, caches or engine state are classes whose constructor takes
# the public fields as parameters.
RECORDS = {
    "EntropyEstimate": ("sequence", "value", "ratio_value", "ratios_monotone"),
    "LyapunovEstimate": ("sequence", "value", "bias_bound"),
    "GibbsCertificate": ("c_lower", "c_upper", "bound", "slack", "passed",
                         "n_range", "worst_word"),
    "TightSet": ("eps", "t", "s_lower", "cutoffs", "targets", "numeric_tails"),
    "MarginalBoundRow": ("symbol", "mass", "bound", "ok"),
    "MarginalBoundCheck": ("rows", "all_ok", "worst_ratio"),
    "EntropyTailBound": ("value", "constant", "cutoff", "n", "applicable"),
    "ConstantsReport": ("aa_emp", "bv_emp", "sup_f1", "variation_by_depth",
                        "depths_scanned", "budget_hit", "declared_aa",
                        "declared_bv"),
    "SummabilityReport": ("verdict", "partial_sum", "tail_bound", "t",
                          "partial_sum_t", "tail_bound_t",
                          "t_variant_summable", "terms"),
    "PressureEstimate": ("value", "route", "t", "n_used", "sequence"),
    "TruncationCurve": ("t", "sizes", "pressures", "gaps", "monotone"),
    "CurvePoint": ("t", "pressure", "lyapunov", "entropy"),
    "PressureCurve": ("points", "second_diffs", "convex_ok"),
    "CompactApproximation": ("levels", "n_values", "connectors",
                             "certificates", "ambient_mixing_assumed"),
    "MaxMeanCycle": ("beta", "cycle", "method"),
    "MaximizingSubshift": ("beta", "symbols", "edges", "entropy", "cycles"),
    "ZeroTempReport": ("beta", "subshift", "t_max", "lyapunov_gap",
                       "entropy_gap", "leakage", "leak_ok", "trace"),
}
CLASSES = {
    "ShiftModel": ("symbols", "adjacency", "ambient", "assumed_mixing"),
    "MixingCertificate": ("status", "primitive_exponent", "symbols", "lengths"),
    "CylinderMeasure": ("shift", "depth", "rows", "masses", "source"),
    "RPFEquilibrium": ("shift", "t", "depth", "states", "pi", "pressure", "src",
                       "dst", "prob", "f"),
    "_LevelWords": ("shift", "levels"),
    "AnnealRow": ("t", "pressure", "lyapunov", "entropy", "masses"),
    "AnnealTrace": ("rows", "clusters", "depth", "delta"),
}
DEFAULTS = {
    "PressureEstimate": {"sequence": ()},
    "ShiftModel": {"ambient": None, "assumed_mixing": False},
    "MixingCertificate": {"symbols": (), "lengths": None},
    "CylinderMeasure": {"source": "raw"},
}
FROZEN = {*RECORDS, "ShiftModel", "MixingCertificate"}
BY_IDENTITY = {"ShiftModel", "MixingCertificate", "CylinderMeasure", "_LevelWords"}
GOLDEN = ShiftModel.golden_mean()
RENEWAL = RenewalRule().truncate(3)
SITE = LocallyConstant({0: 0.0, 1: -1.0})
DECAY = DecayPotential("log", 2.0)


def result_samples() -> dict:
    """One instance of each result type, by type name, on the shared shifts
    above, so two calls give results that compare equal by value."""
    eq = rpf_equilibrium(GOLDEN, SITE, 1.0)
    mu = eq.as_cylinder_measure(3)
    approx = compact_approximation(RenewalRule(), 2)
    curve = pressure_curve(GOLDEN, SITE, [1.0, 2.0, 3.0])
    check = marginal_bound_check(DECAY, 2.0, CylinderMeasure.from_weights(
        RENEWAL, 1, {(1,): 2.0, (2,): 1.0}), 0.0)
    trace = anneal(GOLDEN, SITE, [1.0, 2.0], depth=2)
    report = zero_temp_report(GOLDEN, SITE, [1.0, 2.0], depth=2)
    out = [GOLDEN, mixing_certificate(GOLDEN), approx, mu, eq,
           entropy_estimate(GOLDEN, mu, 3), lyapunov(GOLDEN, SITE, mu, 3),
           gibbs_certificate(GOLDEN, SITE, 1.0, mu, eq.pressure, range(1, 4)),
           tight_set(DECAY, 1.0, 0.1, 2, -math.log(2)), check, check.rows[0],
           entropy_tail_bound(DECAY, 2.0, 1, 10, 0.08),
           constants_report(GOLDEN, SITE, 3), summability_report(DECAY, 2.0),
           transfer_pressure(GOLDEN, SITE, 1.0),
           truncation_curve(approx, DECAY, 2.0), curve, curve.points[0],
           max_mean_cycle(GOLDEN, SITE), report.subshift, trace._level,
           trace.rows[0], trace, report]
    return {type(obj).__name__: obj for obj in out}


@pytest.fixture(scope="module")
def samples():
    return result_samples()


def test_result_types_keep_their_fields_and_defaults(samples):
    assert set(samples) == {*RECORDS, *CLASSES}
    for name, obj in samples.items():
        cls = type(obj)
        fields = RECORDS.get(name) or CLASSES[name]
        assert all(hasattr(obj, f) for f in fields), name
        if name in RECORDS:
            assert issubclass(cls, tuple) and cls._fields == fields, name
            assert cls._field_defaults == DEFAULTS.get(name, {}), name
            assert repr(obj).startswith(f"{name}({fields[0]}="), name
        else:
            assert not issubclass(cls, tuple), name
            params = inspect.signature(cls).parameters.values()
            assert tuple(p.name for p in params) == fields, name
            assert {p.name: p.default for p in params
                    if p.default is not p.empty} == DEFAULTS.get(name, {}), name
    assert samples["TruncationCurve"].value == samples["TruncationCurve"].pressures[-1]
    assert samples["ConstantsReport"].within_declared is True
    assert samples["MixingCertificate"].mixing is True
    one = CylinderMeasure(GOLDEN, 1, np.array([[0]]), np.array([1.0]))
    two = CylinderMeasure(GOLDEN, 1, np.array([[0]]), np.array([1.0]))
    assert one._levels == {} and one._levels is not two._levels


def test_result_types_pickle(samples):
    for name, obj in samples.items():
        data = pickle.dumps(obj)
        back = pickle.loads(data)
        assert type(back) is type(obj) and pickle.dumps(back) == data, name
        # shifts and certificates compare by identity, and so do the
        # results that hold them
        if name not in BY_IDENTITY | {"RPFEquilibrium", "CompactApproximation"}:
            assert back == obj, name


def test_frozen_result_types_reject_assignment(samples):
    for name in FROZEN:
        obj = samples[name]
        field = (RECORDS.get(name) or CLASSES[name])[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    # the caches of the frozen classes still fill
    assert samples["ShiftModel"].period == 1
    assert samples["MaximizingSubshift"].admits((0, 0, 0))


def test_result_types_compare_by_value_or_by_identity(samples):
    again = result_samples()
    again["ShiftModel"] = ShiftModel.golden_mean()  # the samples share GOLDEN
    for name, obj in samples.items():
        if name in BY_IDENTITY or name == "CompactApproximation":
            assert obj != again[name] and obj == obj, name
        else:
            assert obj == again[name], name
    assert hash(samples["MaximizingSubshift"]) == hash(again["MaximizingSubshift"])
    # records are tuples: they iterate, index and equal plain tuples
    est = samples["PressureEstimate"]
    assert est == tuple(est) and est[0] == est.value
    # rows and traces leave their masses and levels out of ==
    row = samples["AnnealRow"]
    assert row == thermoshift.AnnealRow(row.t, row.pressure, row.lyapunov,
                                        row.entropy, None)


def test_public_constructors_take_no_private_state():
    # engine state (levels, scalings, row positions) is attached by the
    # library's own factories, never passed by callers
    private = []
    for name in thermoshift.__all__:
        obj = getattr(thermoshift, name)
        if inspect.isclass(obj) and not issubclass(obj, Exception):
            private += [f"{name}({p})" for p in inspect.signature(obj).parameters
                        if p.startswith("_")]
    assert private == []
