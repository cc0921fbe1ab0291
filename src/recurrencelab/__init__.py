"""Recurrence rates on full shift spaces: plan, build, measure.

The package constructs points of the full shift whose first-return times
R_n grow at prescribed exponential rates relative to a profile function,
supports exact return-time computation on finite windows, and decides the
zero-one Hausdorff-dimension law for the corresponding level sets.

The word side (`errors`, `bignum`, `shift_core`, `return_time`,
`rate_dim_analysis`) is imported with the package.  The planning layer
(`extreal`, `phi_spec`, `cantor_builder`, `plan_engine`) is registered in
sys.modules and as package attributes, but each module's body runs on the
first attribute read, write or delete from it, or on the first read of
one of its names from the package; a process that only measures words
never runs it.  The body runs once, under one lock, whichever thread
touches the module first: other threads wait for it, and the loading
thread's own reads (a circular import, dataclasses reading the module)
pass through.  Once it has run, the module is a plain module and its
public names are bound on the package, so a later read costs nothing
extra.
"""
import sys
import threading
import types
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

from .errors import (AlphabetMismatchError, CapacityError,
                     EstimationImpossibleError, GuardError, PhiDomainError,
                     PhiParseError, PlanValidityError, RecurrenceLabError,
                     RefusalError, SearchCapError, SourceExhaustedError)
from . import bignum   # raises the int<->str guard on import
from .shift_core import Alphabet, LazySequence, SymbolSource, Word
from .return_time import (ReturnTimeResult, ReturnTimes, return_time,
                          return_time_prime, return_times_all)

# deferred module -> the names the package exports from it
_DEFERRED = {
    "extreal": ("INF", "ONE", "ZERO", "ExtReal"),
    "phi_spec": ("ExprPhi", "GammaDelta", "OscLogPhi", "PhiSpec", "PowerLog",
                 "check_nondecreasing", "parse_phi"),
    "cantor_builder": ("ExplicitFree", "FpBase", "FreeStream",
                       "InsertionPlan", "SeededFree", "ZeroFree",
                       "apply_insertions", "bracket_return_times",
                       "certified_brackets", "check_plan_conditions",
                       "first_certified_index", "fp_cylinder_count",
                       "make_insertion_word", "materializable_term_count",
                       "truncate_plan"),
    "plan_engine": ("Classification", "classify_profile",
                    "classify_thresholds", "dichotomy", "find_ratio_witness",
                    "plan_full_dimension"),
}
_OWNER = {name: module for module, names in _DEFERRED.items()
          for name in names}
_LOCK = threading.RLock()
_running: set = set()    # deferred modules whose body is running


class _DeferredModule(types.ModuleType):
    """A registered module whose body has not run yet."""

    def __getattribute__(self, attr):
        _load(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _load(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _load(self)
        types.ModuleType.__delattr__(self, attr)


def _load(module) -> None:
    """Run a deferred module's body, once.  Only the thread that holds the
    lock can find the module running, so it passes through; a body that
    raises leaves the module deferred, and the next touch runs it again."""
    with _LOCK:
        if type(module) is not _DeferredModule or module in _running:
            return
        _running.add(module)
        try:
            spec = types.ModuleType.__getattribute__(module, "__spec__")
            spec.loader.exec_module(module)
        finally:
            _running.discard(module)
        types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
        short = spec.name.rpartition(".")[2]
        globals().update((name, module.__dict__[name])
                         for name in _DEFERRED[short])


for _name in _DEFERRED:
    _spec = PathFinder.find_spec(f"{__name__}.{_name}", __path__)
    _module = module_from_spec(_spec)
    _module.__class__ = _DeferredModule
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(_OWNER))


# after the registration, which its `from . import cantor_builder, phi_spec`
# finds; it reads their names only at call time
from .rate_dim_analysis import (BoxDimensionFit, RateEntry,  # noqa: E402
                                RateTrajectory, box_dimension,
                                plan_rate_trajectory, rate_trajectory,
                                recurrence_witnesses, running_extremes)

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
