"""Exception hierarchy shared by all modules."""


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
