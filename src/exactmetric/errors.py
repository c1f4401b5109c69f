"""Exception hierarchy shared by all modules, and the argument contract: the command
line never lets a Python error escape; record constructors and group builders refuse
any malformed argument, and functions any wrong value of a documented plain type
(label, label set, index, size, value mapping, container of records), with a library
error, reading it inside ``refusing``; a non-record passed where one record is
documented is a caller error, as a ``str`` passed to ``math.gcd`` is."""


class refusing:
    """A ``MALFORMED`` error in the block or ``unless(False)`` raises error(message)."""

    MALFORMED = (TypeError, ValueError, AttributeError, KeyError, IndexError)

    def __init__(self, error, message):
        self.error, self.message = error, message

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, self.MALFORMED):
            raise self.error(self.message) from None

    def unless(self, ok):
        if not ok:
            raise self.error(self.message)


class ExactMetricError(Exception):
    """Base class for all library errors."""

    def as_json(self):
        return {"error": {"kind": type(self).__name__, "message": str(self)}}


class StructuralError(ExactMetricError):
    """Malformed data: wrong shapes, missing keys, unparseable rationals."""


class DomainError(ExactMetricError):
    """Well-formed data violating a mathematical precondition."""


class BudgetExceededError(ExactMetricError):
    """An enumeration would exceed its work budget: a tower level past its
    point budget, or an FVF search past its subset budget."""


class InternalCheckError(ExactMetricError):
    """A condition the theory guarantees failed to hold; indicates a bug."""
