"""Exception hierarchy, the one warning, and shown (a value as an error message prints it).

Every error raised by the library derives from GaussHypError so callers
(and the CLI exit-code mapping) can distinguish library failures from bugs.
"""


class GaussHypError(Exception):
    """Base class for all gausshyp errors; a message given as (format, *values) is formatted only when shown."""

    def __str__(self) -> str:
        return self.args[0] % self.args[1:] if len(self.args) > 1 else super().__str__()


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


def shown(value: object) -> str:
    """repr(value), but an int past the double range by its bit length: repr raises ValueError past 4,300 digits."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return repr(value)
