"""Exception types shared across the package."""


class WspError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WspError):
    """An argument violates a documented precondition."""


class ClassificationError(WspError):
    """A constraint fails the regular/intersection-closed requirement."""


class ResourceLimitError(WspError):
    """An enumeration would exceed its configured cap."""


class DeadEndError(WspError):
    """An ineligible task set has no eligible superset; the caller must reject.
    ``kernel.eliminate_equalities`` raises it for a trivially unsatisfiable instance."""


class ParseError(WspError):
    """Malformed input document."""
