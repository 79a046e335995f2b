"""Shared exception types.

Every failure mode that callers are expected to catch gets its own class;
anything else is a plain ValueError and means a caller bug.
"""


class WfError(Exception):
    pass


class SpecMismatch(WfError):
    """Operands built over different base ring specs."""


class NotDivisible(WfError):
    """Exact division by pi requested on an element of valuation zero."""


class PrecisionExceeded(WfError):
    """Operation would need more pi-adic precision than is tracked."""


class ParseError(WfError):
    """Polynomial or JSON text rejected; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class VariableMismatch(WfError):
    """Polynomial operands live over different variable tuples."""


class NotPrepared(WfError):
    """Relation set is outside the supported reduction fragment."""


class NonSmooth(WfError):
    """Requested variety fails its smoothness certificate."""


class NotEtale(WfError):
    """Relative twisted Jacobian is not a unit."""


class TransitionError(WfError):
    """Gluing data fails the round-trip or cocycle identities."""


class KindMismatch(WfError):
    """Morphism does not have the structural shape its kind promises."""


class NoSolutionAtBound(WfError):
    """Linear search exhausted the degree ceiling without a solution."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class Inconclusive(WfError):
    """Negative answer at a search bound below the completeness threshold."""

    def __init__(self, message, bound=None, threshold=None):
        super().__init__(message)
        self.bound = bound
        self.threshold = threshold
