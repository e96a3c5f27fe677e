"""Convergence-region rasters over a rectangle of the z-plane.

Produces (x, y, inside, margin) records in row-major order (y outer,
x inner, both ascending), suitable for external plotting.  Margins follow
each method's own region predicate; for the classical-series
classification ("maclaurin" with a radius rho) the margin is
rho - min(six moduli), so inside means at least one classical expansion
applies at that rho.
"""

import math
from collections import namedtuple
from itertools import islice
from typing import Iterator

from .buhring import DEFAULT_Z0
from .core import is_count, require_finite_complex
from .errors import ConfigError
from .onepoint import require_expansion_point
from .reference import classical_moduli
from .results import MethodId
from .select import ROUTES

# Not called here; perfbench/tracing.py wraps these names in this module.
from .reference import region_moduli
from .select import in_region_onepoint, in_region_threepoint, in_region_twopoint, method_margin

MAX_RESOLUTION = 4096


class RasterSpec(
    namedtuple("RasterSpec", "method xmin xmax ymin ymax res w rho z0", defaults=(None, 0.9, DEFAULT_Z0))
):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, *fields, **named) -> "RasterSpec":
        self = super().__new__(cls, *fields, **named)
        if not isinstance(self.method, MethodId):
            raise ConfigError(f"unknown method {self.method!r}")
        for v in (self.xmin, self.xmax, self.ymin, self.ymax):
            if not math.isfinite(v):
                raise ConfigError("grid bounds must be finite")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ConfigError("grid bounds must satisfy xmax > xmin and ymax > ymin")
        require_finite_complex(self.z0, "z0")
        if self.w is not None:
            require_expansion_point(self.w)
        if not is_count(self.res):
            raise ConfigError(f"resolution must be an integer, got {self.res!r}")
        if not (2 <= self.res <= MAX_RESOLUTION):
            raise ConfigError(f"resolution must be in [2, {MAX_RESOLUTION}], got {self.res}")
        if self.method is MethodId.ONEPOINT_W and self.w is None:
            raise ConfigError("onepoint-w raster needs the expansion point w")
        if self.method is MethodId.MACLAURIN and not (0.0 < self.rho < 1.0):
            raise ConfigError(f"classification radius rho must be in (0, 1), got {self.rho}")
        return self


def _margin_fn(spec: RasterSpec):
    """The margin of spec.method as a function of (z, w, z0)."""
    if spec.method is MethodId.MACLAURIN:
        rho = spec.rho
        return lambda z, w, z0: rho - min(classical_moduli(z))
    return ROUTES[spec.method].margin


def region_raster(spec: RasterSpec) -> Iterator[tuple[float, float, bool, float]]:
    """Yield (x, y, inside, margin) over the res x res grid, row-major."""
    margin_of = _margin_fn(spec)
    w, z0 = spec.w, spec.z0
    dx = (spec.xmax - spec.xmin) / (spec.res - 1)
    dy = (spec.ymax - spec.ymin) / (spec.res - 1)
    xs = [spec.xmin + i * dx for i in range(spec.res)]
    for j in range(spec.res):
        y = spec.ymin + j * dy
        for x in xs:
            margin = margin_of(complex(x, y), w, z0)
            yield x, y, margin > 0.0, margin


def raster_to_csv(spec: RasterSpec) -> str:
    """region_raster as CSV lines x,y,inside,margin; each x and y is formatted once."""
    lines = ["x,y,inside,margin"]
    points = region_raster(spec)
    row = list(islice(points, spec.res))
    xs = [f"{x!r}," for x, _, _, _ in row]
    while row:
        y = f"{row[0][1]!r}"
        y_in, y_out = f"{y},1,", f"{y},0,"
        lines += [f"{x}{y_in if inside else y_out}{m!r}" for x, (_, _, inside, m) in zip(xs, row)]
        row = list(islice(points, spec.res))
    return "\n".join(lines) + "\n"
