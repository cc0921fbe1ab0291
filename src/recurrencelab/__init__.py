"""Recurrence rates on full shift spaces: plan, build, measure.

The package constructs points of the full shift whose first-return times
R_n grow at prescribed exponential rates relative to a profile function,
supports exact return-time computation on finite windows, and decides the
zero-one Hausdorff-dimension law for the corresponding level sets.
"""
from .errors import (AlphabetMismatchError, CapacityError,
                     EstimationImpossibleError, GuardError, PhiDomainError,
                     PhiParseError, PlanValidityError, RecurrenceLabError,
                     RefusalError, SearchCapError, SourceExhaustedError)
from .extreal import INF, ONE, ZERO, ExtReal
from .shift_core import (Alphabet, ExplicitBase, LazySequence, PeriodicBase,
                         SymbolSource, Word, agreement_length, distance)
from .return_time import (ReturnTimeResult, ReturnTimes, return_time,
                          return_time_naive, return_time_prime,
                          return_times_all, return_times_naive_all)
from .phi_spec import (ExprPhi, GammaDelta, OscLogPhi, PhiSpec, PowerLog,
                       TablePhi, check_nondecreasing, parse_phi)
from .cantor_builder import (ExplicitFree, FpBase, FreeStream, InsertionPlan,
                             SeededFree, ZeroFree, apply_insertions,
                             build_fp_prefix, certified_brackets,
                             check_plan_conditions, first_certified_index,
                             fp_cylinder_count, fp_membership,
                             make_insertion_word, materializable_term_count,
                             predicted_return_time, remove_insertions,
                             truncate_plan)
from .plan_engine import (Classification, LogLadder, PhaseRecord, StepLadder,
                          build_subseq1, build_subseq2_i, build_subseq2_ii,
                          classify_profile, classify_thresholds, compute_AB,
                          dichotomy, find_ratio_witness, plan_full_dimension)
from .rate_dim_analysis import (BoxDimensionFit, RateEntry, RateTrajectory,
                                box_dimension, plan_rate_trajectory,
                                rate_trajectory, recurrence_witnesses,
                                running_extremes)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "AlphabetMismatchError", "BoxDimensionFit", "CapacityError",
    "Classification", "EstimationImpossibleError", "ExplicitBase",
    "ExplicitFree", "ExprPhi", "ExtReal", "FpBase", "FreeStream",
    "GammaDelta", "GuardError", "INF", "InsertionPlan", "LazySequence",
    "LogLadder", "ONE", "OscLogPhi", "PeriodicBase", "PhaseRecord",
    "PhiDomainError", "PhiParseError", "PhiSpec", "PlanValidityError",
    "PowerLog", "RateEntry", "RateTrajectory", "RecurrenceLabError",
    "RefusalError", "ReturnTimeResult", "ReturnTimes", "SearchCapError",
    "SeededFree", "SourceExhaustedError", "StepLadder", "SymbolSource",
    "TablePhi",
    "Word", "ZERO", "ZeroFree", "agreement_length", "apply_insertions",
    "box_dimension", "build_fp_prefix", "build_subseq1", "build_subseq2_i",
    "build_subseq2_ii", "certified_brackets", "check_nondecreasing",
    "check_plan_conditions", "classify_profile", "classify_thresholds",
    "compute_AB", "dichotomy", "distance", "find_ratio_witness",
    "first_certified_index", "fp_cylinder_count", "fp_membership",
    "make_insertion_word", "materializable_term_count", "parse_phi",
    "plan_full_dimension", "plan_rate_trajectory", "predicted_return_time",
    "rate_trajectory", "recurrence_witnesses", "remove_insertions",
    "return_time", "return_time_naive", "return_time_prime",
    "return_times_all", "return_times_naive_all", "running_extremes",
    "truncate_plan",
]
