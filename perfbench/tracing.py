"""Span recording around the public functions of each recurrencelab layer.

The library has no trace points of its own, so the benchmark installs them
from outside: every traced function is replaced by a wrapper that records a
span (name, start, end, parent, op id) and optional sizes.  `from .x import
y` copies the name into the importing module, so a wrapper is rebound in
every recurrencelab module whose attribute is the original object, not only
in the defining module.  Methods are patched on their class.

Per-symbol calls (FpBase.symbol_at, PhiSpec.value, Word.at) are not spanned;
their cost stays in the caller's self time.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, attribute, span name, size recorder) for module-level functions.
# A size recorder maps (args, kwargs, result) to {count name: amount}.
FUNCTIONS = [
    ("return_time", "z_array", "return_time.z_array",
     lambda a, k, r: {"return_time.z_array_symbols": len(a[0])}),
    ("return_time", "return_times_all", "return_time.all",
     lambda a, k, r: {"return_time.results": len(r)}),
    ("return_time", "return_time_naive", "return_time.naive", None),
    ("rate_dim_analysis", "rate_trajectory", "rate_dim_analysis.trajectory", None),
    ("rate_dim_analysis", "recurrence_witnesses", "rate_dim_analysis.witnesses", None),
    ("rate_dim_analysis", "plan_rate_trajectory",
     "rate_dim_analysis.plan_trajectory", None),
    ("cantor_builder", "apply_insertions", "cantor_builder.apply_insertions",
     lambda a, k, r: {"cantor_builder.events": len(r.events)}),
    ("plan_engine", "plan_full_dimension", "plan_engine.plan", None),
    ("plan_engine", "classify_profile", "plan_engine.classify", None),
    ("plan_engine", "classify_thresholds", "plan_engine.classify", None),
    ("plan_engine", "find_ratio_witness", "plan_engine.witness", None),
    ("plan_engine", "build_subseq1", "plan_engine.ladder", None),
    ("plan_engine", "build_subseq2_i", "plan_engine.ladder", None),
    ("plan_engine", "build_subseq2_ii", "plan_engine.ladder", None),
    ("phi_spec", "parse_phi", "phi_spec.parse", None),
    ("phi_spec", "check_nondecreasing", "phi_spec.check_nondecreasing", None),
    ("bignum", "exp_int", "bignum.exp_int",
     lambda a, k, r: {"bignum.digits": int(r.bit_length() * 0.30103) + 1}),
    ("bignum", "power_log_ceil", "bignum.power_log_ceil", None),
    ("cli", "main", "cli.main", None),
] + [("plan_engine", f"_gen_case_{tag}", f"plan_engine.case_{tag}", None)
     for tag in ("i", "ii", "iii", "iv", "v", "vi")]

# (module, class, method, span name, size recorder) for methods.
METHODS = [
    ("shift_core", "Word", "__post_init__", "shift_core.word",
     lambda a, k, r: {"shift_core.word_symbols": len(a[0].symbols)}),
    ("shift_core", "LazySequence", "prefix", "shift_core.prefix",
     lambda a, k, r: {"shift_core.prefix_symbols": len(r)}),
] + [("phi_spec", cls, "gamma_delta", "phi_spec.gamma_delta", None)
     for cls in ("PowerLog", "ExprPhi", "TablePhi", "OscLogPhi")]

# Functions that are counted, not spanned: their time belongs to the caller.
COUNTED = [("phi_spec", "_estimated_gamma_delta", "phi_spec.estimated_calls")]


class Tracer:
    """In-memory span sink; one instance per benchmark run.

    The wrappers are built once; install() and uninstall() only swap
    attributes, so tracing can be switched per op.
    """

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, op id, child seconds]
        self.counts: dict = {}
        self.max_digits = 0
        self._stack: list = []
        self._op = -1
        self._sites = self._build_sites()   # (owner, attr, original, wrapper)

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Install the wrappers and open the root span of one op."""
        self._op = op_id
        self.install()
        idx = self._enter("op")
        try:
            yield
        finally:
            self._exit(idx)
            self.uninstall()

    def _wrap(self, fn, name: str, sizes):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer.count(name + ".calls")
            if sizes is not None:
                for key, amount in sizes(args, kwargs, result).items():
                    if key == "bignum.digits":
                        tracer.max_digits = max(tracer.max_digits, amount)
                    else:
                        tracer.count(key, amount)
            return result

        return traced

    def _counted(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------------

    @staticmethod
    def _bindings(original) -> list:
        """Every (module, attribute) of recurrencelab that holds original."""
        out = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "recurrencelab"
                                    or mod_name.startswith("recurrencelab.")):
                out += [(mod, attr) for attr, value in vars(mod).items()
                        if value is original]
        return out

    def _build_sites(self) -> list:
        """Targets the program no longer has are skipped; their metrics
        read 0."""
        mods = sys.modules
        sites = []
        for mod, attr, name, sizes in FUNCTIONS:
            original = getattr(mods["recurrencelab." + mod], attr, None)
            if original is not None:
                wrapper = self._wrap(original, name, sizes)
                sites += [(owner, a, original, wrapper)
                          for owner, a in self._bindings(original)]
        for mod, attr, name in COUNTED:
            original = getattr(mods["recurrencelab." + mod], attr, None)
            if original is not None:
                wrapper = self._counted(original, name)
                sites += [(owner, a, original, wrapper)
                          for owner, a in self._bindings(original)]
        for mod, cls_name, meth, name, sizes in METHODS:
            cls = getattr(mods["recurrencelab." + mod], cls_name, None)
            # patch only where the class defines the method itself
            original = vars(cls).get(meth) if cls is not None else None
            if original is not None:
                sites.append((cls, meth, original,
                              self._wrap(original, name, sizes)))
        return sites

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------------

    def self_times(self, op_scale) -> dict:
        """Seconds per span name, each span minus the time of its children,
        times op_scale[op id] (the op's machine-speed factor)."""
        out: dict = {}
        for name, start, end, _parent, op, child_s in self.spans:
            out[name] = out.get(name, 0.0) + ((end - start) - child_s) * op_scale[op]
        return out
