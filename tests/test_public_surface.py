"""The package's public surface: the names of recurrencelab.__all__."""
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
