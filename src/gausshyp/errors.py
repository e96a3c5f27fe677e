"""Exception hierarchy, and the one warning.

Every error raised by the library derives from GaussHypError so callers
(and the CLI exit-code mapping) can distinguish library failures from bugs.
"""


class GaussHypError(Exception):
    """Base class for all gausshyp errors."""


class DomainError(GaussHypError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(GaussHypError):
    """A gamma factor or recurrence denominator sits exactly on a pole."""


class OutsideDomain(GaussHypError):
    """The evaluation point is outside the method's convergence region."""


class ParamDomainError(GaussHypError):
    """Parameters (a, b, c) violate a method's validity constraints."""


class BranchCutError(GaussHypError):
    """The evaluation point lies on a branch cut."""


class IntegerDifferenceError(GaussHypError):
    """b - a is an integer, where the continuation coefficients are indeterminate."""


class RecurrenceBreakdown(GaussHypError):
    """A forward recurrence hit a vanishing leading coefficient, or a sum or integrand broke down."""


class SingularityError(GaussHypError):
    """The evaluation point coincides with a singularity of the coefficient recursion."""


class NoMethodError(GaussHypError):
    """No evaluation method applies at the requested point."""


class ConfigError(GaussHypError):
    """Invalid run configuration (grid bounds, resolution, missing options)."""


class NotConvergedWarning(RuntimeWarning):
    """hyp2f1 or run_table used a value that did not reach the tolerance."""
