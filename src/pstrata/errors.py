"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own class;
anything else surfaces as a plain ValueError.  All classes derive from
PstrataError so a CLI or driver can catch the whole family at once.
"""


class PstrataError(Exception):
    """Base class for all library-specific errors."""


class PrecisionExhausted(PstrataError):
    """A pivot or a constructed lattice is not certifiable at precision N.

    Raised when triangularization meets a column whose entries all vanish
    mod p^N, or when a result's lower level climbs within one digit of the
    precision budget.  The computation must be retried with a larger N;
    silently continuing would produce wrong canonical forms.
    """


class NotContained(PstrataError):
    """A vector or lattice fails a required containment."""


class NotInvariant(PstrataError):
    """A lattice is not carried into itself by the group action."""


class NoStableFit(PstrataError):
    """A divisor-profile column shows no exact period within the bound.

    No period m up to the bound repeats its shift back over 2m steps and
    half the window: the window is too short or the bound too small.  The
    message names the longest tail over which some m held; the offending
    coordinate index, when known, is on the ``coordinate`` attribute.
    """

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate


class RateOutOfRange(PstrataError):
    """A growth rate falls outside the admissible band [1/d, 1]."""


class FrameRejected(PstrataError):
    """No candidate frame passed invariance and equivalence certification."""


class NotABoundary(PstrataError):
    """A strata split was requested at an index where the rate does not jump."""


class RankDeficient(PstrataError):
    """Generators that were declared independent collapse during triangularization."""


class EnumerationTooLarge(PstrataError):
    """A spectrum enumeration would exceed the configured size cap."""


class InvalidShape(PstrataError):
    """A random-example shape specification is malformed."""
