"""The package's public surface: the names of recurrencelab.__all__, and
the planning layer that the package loads on first use."""
import os
import subprocess
import sys

import recurrencelab


def test_all_names_resolve_once_and_star_binds_exactly_them():
    names = recurrencelab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(recurrencelab, name)]
    assert missing == []
    bound: dict = {}
    exec("from recurrencelab import *", bound)
    bound.pop("__builtins__")
    assert sorted(bound) == sorted(names)


# eight threads meet at a barrier and touch the planning layer at once,
# half through an import of plan_engine and half through the package
FIRST_USE = """if True:
    import sys, threading
    import recurrencelab
    THREADS = 8
    barrier = threading.Barrier(THREADS)
    got, errors = [None] * THREADS, []

    def first_use(i):
        barrier.wait()
        try:
            if i % 2:
                from recurrencelab.plan_engine import (InsertionPlan,
                                                       classify_thresholds)
            else:
                InsertionPlan = recurrencelab.InsertionPlan
                classify_thresholds = recurrencelab.classify_thresholds
            got[i] = InsertionPlan, classify_thresholds("1", "2", "1", "1").dim
        except BaseException as exc:
            errors.append(repr(exc))

    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=first_use, args=(i,), daemon=True)
               for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    print(errors, [t.is_alive() for t in threads].count(True))
    plan_class = sys.modules["recurrencelab.cantor_builder"].InsertionPlan
    print([g == (plan_class, 1) for g in got])
    print(sorted(type(sys.modules[f"recurrencelab.{name}"]).__name__
                 for name in ("extreal", "phi_spec", "cantor_builder",
                              "plan_engine")))
    """


def test_concurrent_first_use_runs_each_module_once():
    # a fresh interpreter each time, since a module's body runs only once
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(recurrencelab.__file__))))
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", FIRST_USE],
                             capture_output=True, text=True, check=True,
                             env=env, timeout=120).stdout.splitlines()
        assert out == ["[] 0", repr([True] * 8), repr(["module"] * 4)]
