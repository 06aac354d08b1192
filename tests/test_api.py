"""The package surface that the benchmark harness under ``perfbench/`` calls
and patches.  The harness is not imported here; these names are its
contract, so a pruning change that breaks one fails in the test suite
instead of silently in a traced benchmark run."""

import inspect

import thermoshift
from thermoshift import admissible_words, cli, measures, potentials, pressure

# Package-root names the benchmark worker calls.
WORKER_NAMES = (
    "shift_from_config", "potential_from_config", "topological_pressure",
    "transfer_pressure", "rpf_equilibrium", "gibbs_construct",
    "entropy_estimate", "lyapunov", "anneal", "max_mean_cycle",
    "compact_approximation", "RenewalRule", "FullShiftRule",
)
FAMILIES = ("LocallyConstant", "DecayPotential", "MatrixCocycle", "AffinePotential")


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
