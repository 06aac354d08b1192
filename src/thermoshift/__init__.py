"""Thermodynamic formalism on finite and countable Markov shifts:
pressure, Gibbs and equilibrium states, entropy and Lyapunov estimators,
and zero-temperature limits for almost-additive potential sequences."""

from .errors import (BudgetExceeded, ConditionNotMet, ConstructionFailure,
                     NumericalError, ThermoshiftError, UnsupportedEnumeration,
                     ValidationError)
from .linalg import dominant_pair, log_sum_exp, power_iteration
from .measures import (CylinderMeasure, EntropyEstimate, EntropyTailBound,
                       GibbsCertificate, LyapunovEstimate, MarginalBoundCheck,
                       RPFEquilibrium, TightSet, entropy_estimate,
                       entropy_tail_bound, gibbs_certificate, gibbs_construct,
                       gibbs_weights, lyapunov, marginal_bound_check,
                       rpf_equilibrium, tight_set)
from .potentials import (AffinePotential, ConstantsReport, DecayPotential,
                         LocallyConstant, MatrixCocycle, Potential,
                         SummabilityReport, constants_report,
                         potential_from_config, summability_report)
from .pressure import (CurvePoint, PressureCurve, PressureEstimate,
                       TruncationCurve, best_pressure, gurevich_estimate,
                       pressure_curve, topological_pressure,
                       transfer_pressure, truncation_curve,
                       weighted_block_matrix)
from .shifts import (AmbientRule, CompactApproximation, FullShiftRule,
                     MixingCertificate, RenewalRule, ShiftModel,
                     admissible_words, compact_approximation,
                     count_admissible_words, is_primitive, mixing_certificate,
                     periodic_points, shift_from_config, word_levels)
from .zerotemp import (AnnealRow, AnnealTrace, MaximizingSubshift,
                       MaxMeanCycle, ZeroTempReport, anneal, max_mean_cycle,
                       maximizing_subshift, simple_cycles, zero_temp_report)

__version__ = "0.1.0"

__all__ = [
    "AffinePotential", "AmbientRule", "AnnealRow", "AnnealTrace",
    "BudgetExceeded", "CompactApproximation", "ConditionNotMet",
    "ConstantsReport", "ConstructionFailure", "CurvePoint", "CylinderMeasure",
    "DecayPotential", "EntropyEstimate", "EntropyTailBound", "FullShiftRule",
    "GibbsCertificate", "LocallyConstant", "LyapunovEstimate",
    "MarginalBoundCheck", "MatrixCocycle", "MaxMeanCycle",
    "MaximizingSubshift", "MixingCertificate", "NumericalError", "Potential",
    "PressureCurve", "PressureEstimate", "RPFEquilibrium", "RenewalRule",
    "ShiftModel", "SummabilityReport", "ThermoshiftError", "TightSet",
    "TruncationCurve", "UnsupportedEnumeration", "ValidationError",
    "ZeroTempReport", "admissible_words", "anneal", "best_pressure",
    "compact_approximation", "constants_report", "count_admissible_words",
    "dominant_pair", "entropy_estimate", "entropy_tail_bound",
    "gibbs_certificate", "gibbs_construct", "gibbs_weights",
    "gurevich_estimate", "is_primitive", "log_sum_exp", "lyapunov",
    "marginal_bound_check", "max_mean_cycle", "maximizing_subshift",
    "mixing_certificate", "periodic_points",
    "potential_from_config", "power_iteration", "pressure_curve",
    "rpf_equilibrium", "shift_from_config", "simple_cycles",
    "summability_report", "tight_set", "topological_pressure",
    "transfer_pressure", "truncation_curve", "weighted_block_matrix",
    "word_levels", "zero_temp_report",
]
