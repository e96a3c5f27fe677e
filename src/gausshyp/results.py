"""Result containers: evaluation outcomes and method identifiers."""

import enum
from collections import namedtuple

from .errors import ConfigError, shown


class MethodId(enum.Enum):
    """The eight computation routes exposed by the library."""

    MACLAURIN = "maclaurin"
    EULER = "euler-oracle"
    BUHRING = "buhring"
    ONEPOINT_HALF = "onepoint-half"
    ONEPOINT_W = "onepoint-w"
    TWOPOINT = "twopoint"
    THREEPOINT = "threepoint"
    CONNECTION = "connection"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_string(cls, name: "str | MethodId") -> "MethodId":
        """The route named name (a MethodId passes through); an unknown name raises ConfigError."""
        try:
            return cls(name)
        except ValueError:
            raise ConfigError(f"unknown method {shown(name)}") from None


class SeriesResult(namedtuple("SeriesResult", "value terms_used est_error converged")):
    """Computed value plus truncation bookkeeping.

    est_error is a relative error estimate (last-term ratio for series,
    difference of the last two quadrature levels for the integral oracle),
    floored at the double-precision rounding level.  converged is True
    exactly when est_error is at or below the tolerance the caller asked for.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the check too

    def __new__(cls, value: complex, terms_used: int, est_error: float, converged: bool) -> "SeriesResult":
        if est_error < 0:
            raise ValueError("est_error must be non-negative")
        return tuple.__new__(cls, (value, terms_used, est_error, converged))
