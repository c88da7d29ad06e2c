"""Exception types shared across the package, and its one range rule."""

from numbers import Integral, Real

#: float64 entries (1 GiB) one array of a run or an instance may hold at most
MAX_ENTRIES = 2 ** 27


class InputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class NumericError(RuntimeError):
    """Raised when a computation diverges or fails to converge.

    Carries optional context: the last estimate of an iterative routine
    and/or the iteration index at which the failure occurred.
    """

    def __init__(self, message, estimate=None, step=None):
        super().__init__(message)
        self.estimate = estimate
        self.step = step


class DataError(ValueError):
    """Raised when a trace or report lacks data a diagnostic requires."""


def in_range(name, value, lo, hi, ends="()", integer=False):
    """``value`` if it lies in the range, else :class:`InputError`.

    ``ends`` bracket the range from ``lo`` to ``hi``; NaN and None lie in
    none. An ``integer`` value must be an int, not a bool, and compares as
    one, so no bound rounds it."""
    if (isinstance(value, Integral if integer else Real)
            and not isinstance(value, bool)):
        v = int(value) if integer else value
        if ((lo < v if ends[0] == "(" else lo <= v)
                and (v < hi if ends[1] == ")" else v <= hi)):
            return value
    kind = "be an integer in" if integer else "lie in"
    raise InputError(f"{name} = {value} must {kind} "
                     f"{ends[0]}{lo}, {hi}{ends[1]}")
