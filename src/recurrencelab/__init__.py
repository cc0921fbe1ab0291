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
from .shift_core import Alphabet, LazySequence, SymbolSource, Word
from .return_time import (ReturnTimeResult, ReturnTimes, return_time,
                          return_time_prime, return_times_all)
from .phi_spec import (ExprPhi, GammaDelta, OscLogPhi, PhiSpec, PowerLog,
                       check_nondecreasing, parse_phi)
from .cantor_builder import (ExplicitFree, FpBase, FreeStream, InsertionPlan,
                             SeededFree, ZeroFree, apply_insertions,
                             bracket_return_times, certified_brackets,
                             check_plan_conditions, first_certified_index,
                             fp_cylinder_count, make_insertion_word,
                             materializable_term_count, truncate_plan)
from .plan_engine import (Classification, classify_profile,
                          classify_thresholds, dichotomy, find_ratio_witness,
                          plan_full_dimension)
from .rate_dim_analysis import (BoxDimensionFit, RateEntry, RateTrajectory,
                                box_dimension, plan_rate_trajectory,
                                rate_trajectory, recurrence_witnesses,
                                running_extremes)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "AlphabetMismatchError", "BoxDimensionFit", "CapacityError",
    "Classification", "EstimationImpossibleError", "ExplicitFree", "ExprPhi",
    "ExtReal", "FpBase", "FreeStream", "GammaDelta", "GuardError", "INF",
    "InsertionPlan", "LazySequence", "ONE", "OscLogPhi", "PhiDomainError",
    "PhiParseError", "PhiSpec", "PlanValidityError", "PowerLog", "RateEntry",
    "RateTrajectory", "RecurrenceLabError", "RefusalError",
    "ReturnTimeResult", "ReturnTimes", "SearchCapError", "SeededFree",
    "SourceExhaustedError", "SymbolSource", "Word", "ZERO", "ZeroFree",
    "apply_insertions", "box_dimension", "bracket_return_times",
    "certified_brackets", "check_nondecreasing", "check_plan_conditions",
    "classify_profile", "classify_thresholds", "dichotomy",
    "find_ratio_witness", "first_certified_index", "fp_cylinder_count",
    "make_insertion_word", "materializable_term_count", "parse_phi",
    "plan_full_dimension", "plan_rate_trajectory", "rate_trajectory",
    "recurrence_witnesses", "return_time", "return_time_prime",
    "return_times_all", "running_extremes", "truncate_plan",
]
