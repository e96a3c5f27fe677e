"""Region raster tests: grid layout, per-method margins, config validation."""

import math

import pytest

from gausshyp import ConfigError, DomainError, MethodId, RasterSpec, raster_to_csv, region_raster
from conftest import Z_EXC


def _grid(spec: RasterSpec) -> dict[tuple[float, float], tuple[bool, float]]:
    return {(x, y): (inside, margin) for x, y, inside, margin in region_raster(spec)}


def _nearest(grid, z: complex):
    key = min(grid, key=lambda p: abs(complex(*p) - z))
    return grid[key]


class TestRasterGrids:
    def test_row_major_layout_and_count(self):
        spec = RasterSpec(MethodId.TWOPOINT, -1.0, 1.0, -1.0, 1.0, res=5)
        rows = list(region_raster(spec))
        assert len(rows) == 25
        assert rows[0][:2] == (-1.0, -1.0)
        assert rows[1][:2] == (-0.5, -1.0)  # x varies fastest
        assert rows[5][:2] == (-1.0, -0.5)
        assert rows[-1][:2] == (1.0, 1.0)

    def test_twopoint_marks_exceptional_point(self):
        spec = RasterSpec(MethodId.TWOPOINT, -4.0, 4.0, -4.0, 4.0, res=65)
        grid = _grid(spec)
        inside, margin = _nearest(grid, Z_EXC)
        assert inside and margin > 0
        inside_conj, _ = _nearest(grid, Z_EXC.conjugate())
        assert inside_conj
        far_inside, far_margin = _nearest(grid, 3.5 + 0j)
        assert not far_inside and far_margin < 0

    def test_threepoint_raster(self):
        spec = RasterSpec(MethodId.THREEPOINT, -4.0, 4.0, -4.0, 4.0, res=33)
        grid = _grid(spec)
        assert _nearest(grid, Z_EXC)[0]
        assert not _nearest(grid, 3.0 + 0j)[0]

    def test_onepoint_w_disk(self):
        # for w = i the region is the disk |z - i| < sqrt(2)
        spec = RasterSpec(MethodId.ONEPOINT_W, -3.0, 3.0, -3.0, 3.0, res=25, w=1j)
        grid = _grid(spec)
        assert _nearest(grid, 1j)[0]
        assert _nearest(grid, 0.5j)[0]
        assert not _nearest(grid, -1.5j)[0]
        assert not _nearest(grid, 2.0 + 1j)[0]

    def test_classification_raster_leaves_gap_at_exceptional_points(self):
        spec = RasterSpec(MethodId.MACLAURIN, -2.0, 2.0, -2.0, 2.0, res=41, rho=0.9)
        grid = _grid(spec)
        assert not _nearest(grid, Z_EXC)[0]
        assert not _nearest(grid, Z_EXC.conjugate())[0]
        assert _nearest(grid, 0j)[0]  # |z| <= rho
        assert _nearest(grid, 1.0 + 0j)[0]  # |1-z| = 0 <= rho

    def test_buhring_and_euler_margins(self):
        spec_b = RasterSpec(MethodId.BUHRING, -2.0, 2.5, -1.0, 1.0, res=10)
        for x, y, inside, margin in region_raster(spec_b):
            want = abs(complex(x, y) - 0.5) - 0.5
            assert math.isclose(margin, want, rel_tol=1e-12, abs_tol=1e-12)
            assert inside == (want > 0)
        spec_e = RasterSpec(MethodId.EULER, 0.0, 2.0, -1.0, 1.0, res=9)
        grid = _grid(spec_e)
        inside_on_cut, margin_on_cut = grid[(2.0, 0.0)]
        assert not inside_on_cut and margin_on_cut == 0.0
        assert grid[(2.0, 0.5)][0] and grid[(2.0, 0.5)][1] == 0.5

    def test_csv_output(self):
        spec = RasterSpec(MethodId.TWOPOINT, 0.0, 1.0, 0.0, 1.0, res=3)
        text = raster_to_csv(spec)
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,inside,margin"
        assert len(lines) == 10
        x, y, inside, margin = lines[1].split(",")
        assert float(x) == 0.0 and float(y) == 0.0
        assert inside in ("0", "1")
        float(margin)


class TestRasterConfig:
    def test_resolution_bounds(self):
        with pytest.raises(ConfigError):
            RasterSpec(MethodId.TWOPOINT, 0, 1, 0, 1, res=4097)
        with pytest.raises(ConfigError):
            RasterSpec(MethodId.TWOPOINT, 0, 1, 0, 1, res=1)

    @pytest.mark.parametrize("res", [3.5, 8.0, "8", True], ids=repr)
    def test_non_integer_resolution_rejected(self, res):
        with pytest.raises(ConfigError, match="resolution must be an integer"):
            RasterSpec(MethodId.THREEPOINT, -1, 1, -1, 1, res)

    def test_values_past_the_int_to_str_limit(self):
        # str() of the int raised a bare ValueError in place of the ConfigError
        with pytest.raises(ConfigError, match=r"resolution must be in \[2, 4096\], got an int of 16610 bits"):
            RasterSpec(MethodId.TWOPOINT, -1, 1, -1, 1, 10**5000)
        with pytest.raises(ConfigError, match=r"rho must be in \(0, 1\), got an int of 16610 bits"):
            RasterSpec(MethodId.MACLAURIN, -1, 1, -1, 1, 8, rho=10**5000)

    @pytest.mark.parametrize("method", ["threepoint", None], ids=repr)
    def test_method_must_be_a_method_id(self, method):
        with pytest.raises(ConfigError, match="unknown method"):
            RasterSpec(method, -1, 1, -1, 1, 8)

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            RasterSpec(MethodId.TWOPOINT, 1.0, 0.0, 0.0, 1.0, res=8)
        with pytest.raises(ConfigError):
            RasterSpec(MethodId.TWOPOINT, 0.0, math.inf, 0.0, 1.0, res=8)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_overflowing_span_rejected(self, axis):
        # finite bounds whose span, and so the grid step span / (res - 1), overflows
        bounds = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0}
        bounds.update({f"{axis}min": -1.5e308, f"{axis}max": 1.5e308})
        with pytest.raises(ConfigError, match="spans must be finite"):
            RasterSpec(MethodId.TWOPOINT, res=2, **bounds)
        bounds.update({f"{axis}min": -0.8e308, f"{axis}max": 0.8e308})  # span 1.6e308 is finite
        points = list(region_raster(RasterSpec(MethodId.TWOPOINT, res=2, **bounds)))
        assert all(math.isfinite(x) and math.isfinite(y) for x, y, _, _ in points)

    def test_grid_whose_far_corner_overflows_rejected(self):
        # each bound and span is finite, but |z| at a corner is past the largest double: no margin can read it
        with pytest.raises(ConfigError, match="farthest corner from 0 must have a finite modulus"):
            RasterSpec(MethodId.TWOPOINT, 1e308, 1.7e308, -1.7e308, -1e308, 2)
        points = list(region_raster(RasterSpec(MethodId.MACLAURIN, -1.2e308, -1e308, 1e308, 1.2e308, 2)))
        assert [margin for *_, margin in points] == [0.9] * 4  # a corner just inside: the 1/z moduli read 0

    @pytest.mark.parametrize(
        "bounds", [(-(10**400), 1, -1, 1), (-1.0, 10**400, -1, 1), (-1, 1, -1, 10**400), (-(10**308), 10**308, -1, 1)]
    )
    def test_int_bound_past_the_double_range_rejected(self, bounds):
        # math.isfinite, or a float minus the int, raised a bare OverflowError here
        with pytest.raises(ConfigError, match="spans must be finite"):
            RasterSpec(MethodId.THREEPOINT, *bounds, 5)

    def test_onepoint_w_requires_w(self):
        with pytest.raises(ConfigError):
            RasterSpec(MethodId.ONEPOINT_W, 0, 1, 0, 1, res=8)

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            RasterSpec(MethodId.MACLAURIN, 0, 1, 0, 1, res=8, rho=1.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)], ids=repr)
    def test_non_finite_w_and_z0(self, bad):
        with pytest.raises(DomainError):
            RasterSpec(MethodId.ONEPOINT_W, 0, 1, 0, 1, res=8, w=bad)
        with pytest.raises(DomainError):
            RasterSpec(MethodId.BUHRING, 0, 1, 0, 1, res=8, z0=bad)

    def test_zero_w_rejected(self):
        with pytest.raises(DomainError):
            RasterSpec(MethodId.ONEPOINT_W, 0, 1, 0, 1, res=8, w=0)

    def test_replace_runs_the_checks(self):
        spec = RasterSpec(MethodId.TWOPOINT, 0, 1, 0, 1, res=8)
        assert spec._replace(res=9).res == 9
        with pytest.raises(ConfigError):
            spec._replace(res=1)
