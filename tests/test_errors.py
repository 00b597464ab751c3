"""The package's errors survive pickling, as run-all's task errors cross a
pipe from the process that raised them."""

import inspect
import pickle

from knotcover import errors

# one instance of each error class, with every argument its constructor takes
SAMPLES = {
    errors.KnotcoverError: errors.KnotcoverError("cannot read x.pres"),
    errors.ParseError: errors.ParseError("expected ')'", line=2, col=7),
    errors.InvalidArgumentError: errors.InvalidArgumentError("stage count 0"),
    errors.CapacityError: errors.CapacityError("coset cap 1000 reached"),
    errors.MissingAssignmentError: errors.MissingAssignmentError("x1"),
    errors.InvalidHomomorphismError: errors.InvalidHomomorphismError("r1"),
    errors.TableIntegrityError: errors.TableIntegrityError("not closed"),
}


def test_every_error_class_round_trips_through_pickle():
    classes = {cls for cls in vars(errors).values()
               if inspect.isclass(cls) and issubclass(cls, BaseException)
               and cls.__module__ == errors.__name__}
    assert classes == set(SAMPLES)
    for cls, error in SAMPLES.items():
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error), cls.__name__
        for attr in ("line", "col", "name"):
            assert getattr(copy, attr, None) == getattr(error, attr, None), attr
    assert str(SAMPLES[errors.MissingAssignmentError]) == (
        "no image assigned for generator 'x1'")
    assert str(SAMPLES[errors.ParseError]) == "line 2, col 7: expected ')'"
