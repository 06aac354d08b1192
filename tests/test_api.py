"""The package surface that the benchmark harness under ``perfbench/`` calls
and patches.  The harness is not imported here; these names are its
contract, so a pruning change that breaks one fails in the test suite
instead of silently in a traced benchmark run."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import thermoshift
from thermoshift import (admissible_words, cli, linalg, measures, potentials,
                         pressure, shifts)

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
