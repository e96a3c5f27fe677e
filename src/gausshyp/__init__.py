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

The rational expansions keep the exceptional points exp(+-i pi/3) well
inside their convergence regions and remain valid when b - a is an
integer, where the continuation breaks down.  Every region predicate is
exposed, and the CLI reproduces the benchmark error tables and region
rasters.
"""

from .buhring import buhring_coeffs, buhring_eval
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
from .onepoint import eval_onepoint, in_region_onepoint
from .raster import RasterSpec, raster_to_csv, region_raster
from .reference import classify_region, euler_integral, maclaurin
from .results import MethodId, RegionVerdict, SeriesResult
from .select import ROUTES, evaluate, hyp2f1, method_margin, select_method
from .tables import TABLES, TableSpec, run_table, table_to_csv, table_to_json
from .threepoint import eval_threepoint, in_region_threepoint
from .twopoint import eval_twopoint, in_region_twopoint

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
    "RegionVerdict",
    "SeriesResult",
    "SingularityError",
    "TABLES",
    "TableSpec",
    "buhring_coeffs",
    "buhring_eval",
    "classify_region",
    "euler_integral",
    "eval_onepoint",
    "eval_threepoint",
    "eval_twopoint",
    "evaluate",
    "hyp2f1",
    "in_region_onepoint",
    "in_region_threepoint",
    "in_region_twopoint",
    "maclaurin",
    "method_margin",
    "raster_to_csv",
    "region_raster",
    "run_table",
    "select_method",
    "table_to_csv",
    "table_to_json",
]
