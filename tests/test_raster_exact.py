"""Region margins and rasters keep the exact output of their reference forms.

The region predicates compute each margin with one float formula, the
route table calls those formulas directly, the classical classification
takes the minimum of a tuple of moduli, and the raster computes its column
x values once and formats each x and y once.  The references below are the
earlier forms written out literally: each predicate converting its inputs
and building its verdict, the classification building a dict of moduli,
and a raster loop that computes and formats both coordinates at every
point.  Every comparison is exact: strings for the CSV and bit patterns
for the tuples, so a regrouped product or a -0.0 shows.
"""

import math
import random

import pytest

from gausshyp import (
    MethodId,
    RasterSpec,
    RegionVerdict,
    classify_region,
    in_region_onepoint,
    in_region_threepoint,
    in_region_twopoint,
    method_margin,
    raster_to_csv,
    region_raster,
)
from gausshyp.reference import region_moduli

# --- references: the margin formulas ---------------------------------------


def _threepoint_ref(z):
    z = complex(z)
    margin = 6.0 * math.sqrt(3.0) * abs((1.0 - z) * (2.0 - z)) - abs(z) ** 3
    return RegionVerdict(inside=margin > 0.0, margin=margin)


def _twopoint_ref(z):
    z = complex(z)
    margin = 4.0 * abs(1.0 - z) - abs(z) * abs(z)
    return RegionVerdict(inside=margin > 0.0, margin=margin)


def _onepoint_ref(z, w=0.5):
    z = complex(z)
    w = complex(w)
    margin = abs(1.0 - w * z) - abs(z) * max(abs(w), abs(1.0 - w))
    return RegionVerdict(inside=margin > 0.0, margin=margin)


def _moduli_ref(z):
    z = complex(z)
    az = abs(z)
    a1z = abs(1.0 - z)
    return {
        "z": az,
        "1/z": 1.0 / az if az > 0 else math.inf,
        "1-z": a1z,
        "1/(1-z)": 1.0 / a1z if a1z > 0 else math.inf,
        "z/(1-z)": az / a1z if a1z > 0 else (0.0 if az == 0 else math.inf),
        "(z-1)/z": a1z / az if az > 0 else math.inf,
    }


def _exclusion_ref(z, z0):
    return abs(z - z0) - max(abs(z0), abs(z0 - 1.0))


#: method -> margin(z, w, z0), each through its predicate's verdict
MARGIN_REF = {
    MethodId.MACLAURIN: lambda z, w, z0: 1.0 - abs(z),
    MethodId.EULER: lambda z, w, z0: abs(z.imag) if z.real >= 1.0 else abs(z - 1.0),
    MethodId.BUHRING: lambda z, w, z0: _exclusion_ref(z, z0),
    MethodId.ONEPOINT_HALF: lambda z, w, z0: _onepoint_ref(z, 0.5).margin,
    MethodId.ONEPOINT_W: lambda z, w, z0: _onepoint_ref(z, w).margin,
    MethodId.TWOPOINT: lambda z, w, z0: _twopoint_ref(z).margin,
    MethodId.THREEPOINT: lambda z, w, z0: _threepoint_ref(z).margin,
}


# --- references: the raster loops -------------------------------------------


def _margin_fn_ref(spec):
    if spec.method is MethodId.MACLAURIN:
        rho = spec.rho

        def f(z, w, z0):
            return rho - min(_moduli_ref(z).values())

        return f
    return MARGIN_REF[spec.method]


def _region_raster_ref(spec):
    margin_of = _margin_fn_ref(spec)
    w, z0 = spec.w, spec.z0
    dx = (spec.xmax - spec.xmin) / (spec.res - 1)
    dy = (spec.ymax - spec.ymin) / (spec.res - 1)
    for j in range(spec.res):
        y = spec.ymin + j * dy
        for i in range(spec.res):
            x = spec.xmin + i * dx
            margin = margin_of(complex(x, y), w, z0)
            yield x, y, margin > 0.0, margin


def _raster_to_csv_ref(spec):
    lines = ["x,y,inside,margin"]
    for x, y, inside, margin in _region_raster_ref(spec):
        lines.append(f"{x!r},{y!r},{int(inside)},{margin!r}")
    return "\n".join(lines) + "\n"


# --- the tiles -----------------------------------------------------------------


def _bits(rows):
    """Exact bit patterns; unlike ==, equal for NaN and unequal for -0.0 vs 0.0."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def _verdict_bits(verdict):
    return verdict.inside, verdict.margin.hex()


def _moduli_bits(moduli):
    return [(label, m.hex()) for label, m in moduli.items()]


def _spec(method, xmin, xmax, ymin, ymax, res, w=0.5 + 0.5j, rho=0.9, z0=0.5):
    w = w if method is MethodId.ONEPOINT_W else None
    return RasterSpec(method, xmin, xmax, ymin, ymax, res=res, w=w, rho=rho, z0=z0)


def _seeded_specs(seed=9, per_method=14):
    """Tiles of width 1e-9 to 9 anywhere in [-4, 4]^2, with random w, rho and z0."""
    rng = random.Random(seed)
    specs = []
    for k in range(per_method):
        for method in MethodId:
            cx, cy = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
            half = 10.0 ** rng.uniform(-9.0, math.log10(9.0)) / 2.0
            w = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            z0 = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            specs.append(_spec(
                method, cx - half, cx + half, cy - 0.75 * half, cy + half,
                res=rng.choice((2, 3, 7, 12)),
                w=w if k % 3 else w.real,  # a float w too
                rho=rng.uniform(0.05, 0.99),
                z0=z0 if k % 2 else 0.5,
            ))
    return specs


def _fixed_specs():
    specs = []
    for method in MethodId:
        specs += [
            _spec(method, -1.0, 3.0, -1.0, 1.0, res=5),  # through z = 0, 1, 2 on the real axis
            _spec(method, -1.0, 3.0, -0.5, 0.5, res=9, z0=1.5 - 0.5j),
            _spec(method, 1.0 - 1e-9, 1.0, -1e-9, 0.0, res=2),  # width 1e-9, corner at z = 1
            _spec(method, 0.5 - 1e-9, 0.5, 0.866 - 1e-9, 0.866 + 1e-9, res=3),
        ]
    # the README's region commands, at a reduced resolution
    specs.append(_spec(MethodId.THREEPOINT, -4.0, 4.0, -4.0, 4.0, res=33))
    specs.append(_spec(MethodId.MACLAURIN, -2.0, 2.0, -2.0, 2.0, res=33, rho=0.95))
    return specs


SPECS = _seeded_specs() + _fixed_specs()


def _specs_of(method):
    return [spec for spec in SPECS if spec.method is method]


def test_specs_cover_every_method_and_edge():
    assert {s.method for s in SPECS} == set(MethodId)
    assert min(s.res for s in SPECS) == 2
    assert min(s.xmax - s.xmin for s in SPECS) < 1e-8
    assert any(isinstance(s.w, float) for s in SPECS)
    on_grid = {(x, y) for s in SPECS for x, y, _, _ in _region_raster_ref(s)}
    assert {(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)} <= on_grid


@pytest.mark.parametrize("method", list(MethodId), ids=str)
def test_raster_matches_reference(method):
    for spec in _specs_of(method):
        assert raster_to_csv(spec) == _raster_to_csv_ref(spec), spec
        assert _bits(region_raster(spec)) == _bits(_region_raster_ref(spec)), spec


@pytest.mark.parametrize("method", list(MethodId), ids=str)
def test_margins_and_verdicts_match_reference(method):
    for spec in _specs_of(method):
        w = spec.w if spec.w is not None else 0.5 + 0.5j
        for x, y, _, _ in _region_raster_ref(spec):
            z = complex(x, y)
            for m in MethodId:
                got = method_margin(m, z, w=w, z0=spec.z0)
                assert got.hex() == MARGIN_REF[m](z, w, spec.z0).hex(), (m, z, spec)
            assert _verdict_bits(in_region_threepoint(z)) == _verdict_bits(_threepoint_ref(z))
            assert _verdict_bits(in_region_twopoint(z)) == _verdict_bits(_twopoint_ref(z))
            assert _verdict_bits(in_region_onepoint(z)) == _verdict_bits(_onepoint_ref(z))
            assert _verdict_bits(in_region_onepoint(z, w)) == _verdict_bits(_onepoint_ref(z, w))
            moduli = _moduli_ref(z)
            assert _moduli_bits(region_moduli(z)) == _moduli_bits(moduli)
            assert classify_region(z, spec.rho) == {k for k, v in moduli.items() if v <= spec.rho}
