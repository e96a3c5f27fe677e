"""Seeded input generators for the four workloads (standard library only).

Every generator takes a ``random.Random``; the same seed gives the same
inputs.  The library only ever sees the generated numbers.  Warm-up inputs
come from a separate stream (``warmup_rng``) so that no timed input is seen
before the timed pass.
"""

import cmath
import math
import random

WORKLOADS = ("sweep-mixed", "sweep-shared", "raster", "cli")

#: Distinct timed inputs per run.  Sized so one pass lasts about the run at
#: the parent commit on the mixed sweep (so no (b, c) repeats there), and so
#: the mpmath references (about 0.7 ms a point on the mixed sweep, 3.5 ms
#: near exp(+-i pi/3)) stay within a run's budget.  On the shared sweep and
#: raster, enough inputs for ten beyond the p99 over inputs, each run on
#: several passes.
POOL_SIZE = {"sweep-mixed": 32000, "sweep-shared": 1200, "raster": 1200}
#: CLI inputs per run: about one pass of the CLI share of a run on the
#: mixed sweep; the others cycle theirs.
CLI_POOL_SIZE = {"sweep-mixed": 4000, "sweep-shared": 400, "raster": 60}

#: Triples of sweep-shared, one block each; the last has integer b - a.
SHARED_TRIPLES = ((1.2, 2.1, 3.0), (1.2, 2.5, 3.0), (1.2, 2.1, 3.5), (1.0, 3.0, 4.0))

#: Raster methods, cycled tile by tile: every predicate-backed route plus
#: the classical-series classification.
RASTER_METHODS = ("threepoint", "twopoint", "onepoint-half", "onepoint-w", "buhring", "maclaurin")
RASTER_W = complex(0.5, 0.5)
RASTER_RHO = 0.9
RASTER_RES = 12
RASTER_WIDTH = 2.0

Z_EXC = cmath.exp(1j * math.pi / 3.0)


def rng_for(seed: int) -> random.Random:
    return random.Random(f"timed-{seed}")


def warmup_rng(seed: int) -> random.Random:
    return random.Random(f"warmup-{seed}")


def cli_rng(seed: int) -> random.Random:
    return random.Random(f"cli-{seed}")


def _polar(r: float, theta: float) -> complex:
    return complex(r * math.cos(theta), r * math.sin(theta))


def kronecker(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """n points of the R_d low-discrepancy sequence in [0, 1)^dims, shifted at random.

    Every prefix of the sequence covers the cube evenly, so a run that gets
    through more or fewer points sees nearly the same mix; the seed moves
    the points through the shift (a Cranley-Patterson rotation).
    """
    phi = 2.0
    for _ in range(50):  # root of x**(dims + 1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(j + 1) for j in range(dims)]
    shift = [rng.random() for _ in range(dims)]
    return [[(s + i * a) % 1.0 for s, a in zip(shift, alpha)] for i in range(1, n + 1)]


def sweep_mixed(rng: random.Random, n: int) -> list[tuple[float, float, float, complex]]:
    """Its own (a, b, c, z) per point, spread over every auto route.

    c in [0.5, 6], 0 < b < c, a in [-3, 5]; |z| log-uniform on [0.1, 31]
    with a uniform argument.  About 10% of points get an integer b - a and
    about 10% have a and b swapped, so b may be >= c.  The points follow a
    low-discrepancy sequence rather than independent draws, so the route
    mix, and with it the latency tail, hardly moves from seed to seed.
    """
    lo, hi = math.log(0.1), math.log(31.0)
    pts = []
    for uc, ub, ua, u, ur, ut in kronecker(rng, n, 6):
        c = 0.5 + 5.5 * uc
        b = c * ub or c / 2.0
        a = -3.0 + 8.0 * ua
        if u < 0.1:
            a = b - round(b - a)
        elif u < 0.2:
            a, b = b, a
        z = _polar(math.exp(lo + (hi - lo) * ur), math.pi * (2.0 * ut - 1.0))
        pts.append((a, b, c, z))
    return pts


def sweep_shared(rng: random.Random, n: int) -> list[tuple[float, float, float, complex]]:
    """Four fixed triples, one block each; z = exp(+-i pi/3) plus N(0, 0.3^2) jitter."""
    pts = []
    per_block = n // len(SHARED_TRIPLES)
    for a, b, c in SHARED_TRIPLES:
        for _ in range(per_block):
            centre = Z_EXC if rng.random() < 0.5 else Z_EXC.conjugate()
            pts.append((a, b, c, centre + complex(rng.gauss(0.0, 0.3), rng.gauss(0.0, 0.3))))
    return pts


def raster_tiles(rng: random.Random, n: int, start: int = 0) -> list[dict]:
    """res x res tiles of width RASTER_WIDTH, offsets uniform in [-4, 4]^2."""
    tiles = []
    for k in range(start, start + n):
        cx, cy = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        half = RASTER_WIDTH / 2.0
        tiles.append({
            "method": RASTER_METHODS[k % len(RASTER_METHODS)],
            "xmin": cx - half, "xmax": cx + half,
            "ymin": cy - half, "ymax": cy + half,
            "res": RASTER_RES,
        })
    return tiles


def tile_argv(tile: dict) -> list[str]:
    """The `gausshyp region` arguments that reproduce one tile.

    Values are passed as --key=value so that negative numbers are not read
    as options.
    """
    argv = ["region", "--method", tile["method"]]
    for key in ("xmin", "xmax", "ymin", "ymax"):
        argv.append(f"--{key}={tile[key]!r}")
    argv.append(f"--res={tile['res']}")
    if tile["method"] == "onepoint-w":
        argv.append(f"--w={fmt_complex(RASTER_W)}")
    if tile["method"] == "maclaurin":
        argv.append(f"--rho={RASTER_RHO!r}")
    return argv


def fmt_complex(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


#: Command cycles of a cli run, each with points of its own, so that the
#: digits and the tail come from many points, not the 14 of one cycle.
CLI_CYCLES = 40
CLI_CYCLE_LEN = 20

#: CLI eval templates: (method, base z, z jitter sigma, extra argv).  Each
#: sits well inside its route's region so that a failure is a regression.
CLI_EVAL_TEMPLATES = (
    ("auto", 0.4 * Z_EXC, 0.05, []),
    ("auto", Z_EXC, 0.05, []),
    ("twopoint", Z_EXC, 0.05, []),
    ("onepoint-half", complex(-1.0, 0.0), 0.05, []),
    ("onepoint-w", complex(-1.0, 0.0), 0.05, [f"--w={fmt_complex(RASTER_W)}"]),
    ("buhring", complex(-1.0, 1.0), 0.05, []),
    ("euler-oracle", Z_EXC, 0.05, []),
)


def cli_commands(rng: random.Random) -> list[dict]:
    """One cycle of CLI commands: 14 eval, tables 1..4, 2 regions.

    Each entry has the argv after `gausshyp`, the kind, and for eval the
    (a, b, c, z) it asks for; for region the tile.  The order within each
    kind is shuffled, but the kinds sit at fixed places, spread over the
    cycle, so that any stretch of it has about the cycle's mix.
    """
    evals = []
    for rep in range(2):
        for method, base, sigma, extra in CLI_EVAL_TEMPLATES:
            a, b, c = rng.uniform(1.1, 1.3), rng.uniform(2.4, 2.6), rng.uniform(3.0, 3.5)
            z = base + complex(rng.gauss(0.0, sigma), rng.gauss(0.0, sigma))
            argv = ["eval", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}",
                    f"--z={fmt_complex(z)}", f"--method={method}"] + extra
            evals.append({"kind": "eval", "argv": argv, "point": (a, b, c, z)})
    tables = [{"kind": "table", "argv": ["table", "--id", str(t)], "table": t} for t in (1, 2, 3, 4)]
    regions = [{"kind": "region", "argv": tile_argv(tile), "tile": tile}
               for tile in raster_tiles(rng, 2, start=rng.randrange(len(RASTER_METHODS)))]
    for group in (evals, tables, regions):
        rng.shuffle(group)
    cmds = []
    for j in range(4):  # four blocks of five: table, three evals, and a region every other block
        block = [tables[j], *evals[3 * j:3 * j + 3]]
        block.append(regions[j // 2] if j % 2 == 0 else evals[12 + j // 2])
        cmds.extend(block)
    return cmds


def make_inputs(workload: str, seed: int) -> dict:
    """Timed, warm-up and CLI inputs of one run.

    The CLI inputs are what the sweeps and raster pass to `gausshyp.cli.main`
    for cli_p50_ms; they come from a stream of their own, so the CLI never
    repeats a timed point.
    """
    rng, wrng, crng = rng_for(seed), warmup_rng(seed), cli_rng(seed)
    if workload == "sweep-mixed":
        return {"timed": sweep_mixed(rng, POOL_SIZE[workload]), "warmup": sweep_mixed(wrng, 400),
                "cli": sweep_mixed(crng, CLI_POOL_SIZE[workload])}
    if workload == "sweep-shared":
        return {"timed": sweep_shared(rng, POOL_SIZE[workload]), "warmup": sweep_shared(wrng, 200),
                "cli": sweep_shared(crng, CLI_POOL_SIZE[workload])}
    if workload == "raster":
        return {"timed": raster_tiles(rng, POOL_SIZE[workload]), "warmup": raster_tiles(wrng, 12),
                "cli": raster_tiles(crng, CLI_POOL_SIZE[workload])}
    if workload == "cli":
        timed = [cmd for _ in range(CLI_CYCLES) for cmd in cli_commands(rng)]
        return {"timed": timed, "warmup": cli_commands(wrng)}
    raise ValueError(f"unknown workload {workload!r}")
