"""Independent checks: mpmath references, the numpy raster check, statistics.

Nothing here calls gausshyp.  The reference for a sweep or CLI point is
``mpmath.hyp2f1`` at 20 significant digits, computed outside the timed
region and cached per input set under ``perfbench/.cache``.  The raster
check recomputes every margin from the region inequalities of PAPER.md.
"""

import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"

#: -log10 of a relative error is capped here (double precision resolves ~16 digits).
DIGITS_CAP = 16.0

#: A converged result whose true error exceeds this multiple of est_error is dishonest.
HONESTY_FACTOR = 100.0

#: A result the library vouches for is wrong when its true relative error
#: exceeds both this and HONESTY_FACTOR x est_error: for converged series
#: results (est_error <= 1e-12) it must carry at least ten correct digits.
#: Dishonesty below this level is measured (accuracy.dishonest_frac), not
#: gated: the parent commit has rare converged results off by ~100x their
#: estimate at ~12 correct digits.
WRONG_REL = 1e-10

#: Raster points closer than this (relative to the size of the compared
#: terms) to a region boundary are not counted as flag disagreements.
BOUNDARY_TOL = 1e-12

#: Margins that differ from the independent value by more than this
#: (relative to the size of the compared terms) are disagreements.
MARGIN_TOL = 1e-10

#: From this many missing references on, two child processes share the work.
_PARALLEL_MIN = 400


def _ref_one(point) -> tuple[float, float] | None:
    a, b, c, z = point
    try:
        with mpmath.workdps(20):
            v = mpmath.hyp2f1(a, b, c, mpmath.mpc(z.real, z.imag))
        v = complex(v)
    except (ValueError, ZeroDivisionError, mpmath.libmp.NoConvergence):
        return None
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        return None
    return (v.real, v.imag)


def ref_chunk(points):
    return [_ref_one(p) for p in points]


def _refs_in_children(points, workers: int = 2):
    """ref_chunk over `workers` child processes (plain pipes, JSON in and out)."""
    size = (len(points) + workers - 1) // workers
    parts = [points[i:i + size] for i in range(0, len(points), size)]
    procs = [subprocess.Popen([sys.executable, str(HERE / "child.py"), "refs"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for _ in parts]
    out = []
    try:
        for proc, part in zip(procs, parts):
            proc.stdin.write(json.dumps([(a, b, c, z.real, z.imag) for a, b, c, z in part]))
            proc.stdin.close()
        for proc in procs:
            out.extend(json.loads(proc.stdout.read()))
            if proc.wait() != 0:
                raise RuntimeError("reference child failed")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out


def references(tag: str, pool: list, wanted: list[int]) -> dict[int, complex | None]:
    """mpmath.hyp2f1 for pool[i], i in wanted; cached per pool content.

    With many points the work is split over two child processes (the
    machine has two cores and the timed region is over by now).
    """
    digest = hashlib.sha1(repr(pool).encode()).hexdigest()[:20]
    path = CACHE_DIR / f"ref-{tag}-{digest}.json"
    cached: dict[str, list | None] = {}
    if path.is_file():
        try:
            cached = json.loads(path.read_text())
        except (OSError, ValueError):
            cached = {}
    missing = [i for i in wanted if str(i) not in cached]
    if missing:
        pts = [pool[i] for i in missing]
        vals = _refs_in_children(pts) if len(pts) >= _PARALLEL_MIN else ref_chunk(pts)
        for i, v in zip(missing, vals):
            cached[str(i)] = v
        CACHE_DIR.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cached))
        tmp.replace(path)
    out = {}
    for i in wanted:
        v = cached[str(i)]
        out[i] = None if v is None else complex(v[0], v[1])
    return out


def is_wrong(rel: float, est: float) -> bool:
    return rel > max(WRONG_REL, HONESTY_FACTOR * est)


def rel_error(value: complex, ref: complex) -> float:
    scale = abs(ref)
    err = abs(value - ref)
    return err / scale if scale > 0.0 else err


def digits(rel: float) -> float:
    if rel <= 0.0:
        return DIGITS_CAP
    if not math.isfinite(rel):
        return 0.0
    return min(DIGITS_CAP, -math.log10(rel))


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (q in [0, 1])."""
    n = len(sorted_vals)
    return sorted_vals[min(n - 1, max(0, math.ceil(q * n) - 1))]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


# ---- raster -------------------------------------------------------------

def _margins(method: str, z: np.ndarray, w: complex, rho: float, z0: complex = 0.5):
    """(margin, scale) from the PAPER.md region inequalities."""
    az = np.abs(z)
    if method == "threepoint":
        lhs, rhs = 6.0 * math.sqrt(3.0) * np.abs((1.0 - z) * (2.0 - z)), az**3
    elif method == "twopoint":
        lhs, rhs = 4.0 * np.abs(1.0 - z), az**2
    elif method in ("onepoint-half", "onepoint-w"):
        w = 0.5 if method == "onepoint-half" else w
        lhs, rhs = np.abs(1.0 - w * z), az * max(abs(w), abs(1.0 - w))
    elif method == "buhring":
        lhs, rhs = np.abs(z - z0), np.full_like(az, max(abs(z0), abs(z0 - 1.0)))
    elif method == "maclaurin":
        a1z = np.abs(1.0 - z)
        with np.errstate(divide="ignore", invalid="ignore"):
            moduli = np.stack([az, 1.0 / az, a1z, 1.0 / a1z, az / a1z, a1z / az])
        moduli = np.where(np.isnan(moduli), np.inf, moduli)
        lhs, rhs = np.full_like(az, rho), moduli.min(axis=0)
    else:
        raise ValueError(f"no independent check for method {method!r}")
    return lhs - rhs, np.abs(lhs) + np.abs(rhs)


def check_raster_csv(text: str, tile: dict, w: complex, rho: float) -> tuple[int, int, np.ndarray]:
    """(points, disagreements, per-point margin digits) for one region CSV.

    Coordinates must lie on the tile's grid, inside flags must match the
    sign of the independently computed margin away from the boundary, and
    margins must agree to MARGIN_TOL relative to the compared terms.
    """
    lines = text.splitlines()
    res = tile["res"]
    if not lines or lines[0] != "x,y,inside,margin" or len(lines) != res * res + 1:
        return res * res, res * res, np.empty(0)
    data = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    x, y, inside, margin = data.T
    gx = np.linspace(tile["xmin"], tile["xmax"], res)
    gy = np.linspace(tile["ymin"], tile["ymax"], res)
    ex, ey = np.meshgrid(gx, gy)
    span = max(abs(tile["xmin"]), abs(tile["xmax"]), abs(tile["ymin"]), abs(tile["ymax"]), 1.0)
    bad = (np.abs(x - ex.ravel()) > 1e-12 * span) | (np.abs(y - ey.ravel()) > 1e-12 * span)
    ref, scale = _margins(tile["method"], x + 1j * y, w, rho)
    finite = np.isfinite(ref) & np.isfinite(scale)
    scale = np.where(finite & (scale > 0), scale, 1.0)
    away = finite & (np.abs(ref) > BOUNDARY_TOL * scale)
    bad |= away & ((inside > 0.5) != (ref > 0.0))
    err = np.where(finite, np.abs(margin - ref) / scale, 0.0)
    bad |= err > MARGIN_TOL
    with np.errstate(divide="ignore"):
        dig = np.where(err > 0, -np.log10(np.where(err > 0, err, 1.0)), DIGITS_CAP)
    dig = np.minimum(dig, DIGITS_CAP)[finite]
    return res * res, int(bad.sum()), dig


_CELL = r"^-?0\.\d{3}E[+-]\d+$"


def check_table_csv(text: str, n_rows: int) -> bool:
    """Header plus two lines (continuation, featured) per table row, seven fields each."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 * n_rows + 1 or rows[0][:2] != ["row", "method"]:
        return False
    for row in rows[1:]:
        if len(row) != len(rows[0]):
            return False
        for cell in row[2:]:
            if not (re.match(_CELL, cell) or cell.isupper()):
                return False
    return True
