import pickle

import pytest

from ssdr import errors

ERROR_TYPES = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.SsdrError)]
FIELDS = ("class_id", "pivot", "column", "iterations", "primal", "dual", "line")
# constructor arguments for the types whose __init__ differs from the base
KWARGS = {
    errors.NotSpdError: {"pivot": 3, "class_id": 1},
    errors.DegenerateFeatureError: {"column": 2},
    errors.ConvergenceError: {"primal": 0.5, "dual": 0.25, "iterations": 7,
                              "class_id": 1},
    errors.CsvParseError: {"line": 4},
}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    exc = cls("went wrong", **KWARGS.get(cls, {"class_id": 1}))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    for name in FIELDS:
        assert getattr(back, name, None) == getattr(exc, name, None), name
