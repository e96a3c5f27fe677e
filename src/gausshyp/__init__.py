"""gausshyp: the Gauss hypergeometric function 2F1(a, b, c; z) for complex z.

Evaluation routes:

* maclaurin        -- defining power series, |z| < 1
* euler-oracle     -- tanh-sinh quadrature of the integral representation
                      (c > b > 0, z off [1, inf)); the reference baseline
* buhring          -- analytic continuation around z0 in powers of 1/(z-z0)
* onepoint-half    -- rational expansion from the Taylor series of
                      (1-zt)^(-a) at t = 1/2; converges on Re z < 1
* onepoint-w       -- the same at a generic complex point w
* twopoint         -- two-point expansion (base points 0, 1);
                      converges on |z|^2 < 4|1-z|
* threepoint       -- three-point expansion (base points 0, 1/2, 1);
                      converges on |z|^3 < 6 sqrt(3) |(1-z)(2-z)|
* connection       -- the logarithmic series in 1/z at integer b - a, |z| > 1

The rational expansions keep the exceptional points exp(+-i pi/3) well
inside their convergence regions and remain valid when b - a is an
integer, where the continuation breaks down.  Each route's region margin
and refusal live in its module, and the CLI reproduces the benchmark
error tables and region rasters.  The table and raster names load their
modules on first access.
"""

from importlib import import_module

from .buhring import buhring_coeffs
from .core import HypParams
from .errors import (
    BranchCutError,
    ConfigError,
    DomainError,
    GaussHypError,
    IntegerDifferenceError,
    NoMethodError,
    NotConvergedWarning,
    OutsideDomain,
    ParamDomainError,
    PoleError,
    RecurrenceBreakdown,
    SingularityError,
)
from .reference import classify_region, euler_integral, maclaurin
from .results import MethodId, SeriesResult
from .select import ROUTES, evaluate, hyp2f1, method_margin, select_method

#: Names served by __getattr__, by the module that loads on the first access to one of them.
_ON_DEMAND = dict.fromkeys(("TABLES", "TableSpec", "run_table", "table_to_csv", "table_to_json"), "tables")
_ON_DEMAND.update(dict.fromkeys(("RasterSpec", "raster_to_csv", "region_raster"), "raster"))


def __getattr__(name: str):
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_ON_DEMAND[name]}", __name__), name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

__version__ = "0.1.0"

__all__ = [
    "BranchCutError",
    "ConfigError",
    "DomainError",
    "GaussHypError",
    "HypParams",
    "IntegerDifferenceError",
    "MethodId",
    "NoMethodError",
    "NotConvergedWarning",
    "OutsideDomain",
    "ParamDomainError",
    "PoleError",
    "ROUTES",
    "RasterSpec",
    "RecurrenceBreakdown",
    "SeriesResult",
    "SingularityError",
    "TABLES",
    "TableSpec",
    "buhring_coeffs",
    "classify_region",
    "euler_integral",
    "evaluate",
    "hyp2f1",
    "maclaurin",
    "method_margin",
    "raster_to_csv",
    "region_raster",
    "run_table",
    "select_method",
    "table_to_csv",
    "table_to_json",
]
