"""The closed loop, child processes, and the host-speed scale.

The benchmark host is shared: the same Python code runs up to ~1.8x
slower while neighbours are busy, in phases from a fraction of a second
to minutes, so raw times of runs made a few minutes apart differ by more
than any bound worth setting.  Every in-process time the benchmark
reports is therefore scaled to a reference host speed:

    reported = measured x REF_PROBE_NS[kind] / probe_ns

where probe_ns is the time of a fixed pure-Python reference kernel (no
gausshyp code) read next to the measurement.  Code of different kinds
slows down by different amounts in the same slow phase, so there is one
kernel per kind of work: "arith" (complex arithmetic, like the series the
sweeps sum), "format" (float arithmetic, small calls and float repr
joined into text, like a raster's CSV) and "parse" (building an argparse
parser and parsing one command line, like each gausshyp.cli.main call).  The loop reads its probe between
chunks of calls and scales each chunk by the median probe of the chunks
around it.  A subprocess is scaled the same way by a reference child
instead, timed just before and after it: interpreter start and a fixed
set of standard-library imports, which tracks a child's start-up far
better than either kernel does.  A change to gausshyp moves the measured time and not the
probe, so it shows in full; raw times are kept in each run's metadata.
"""

import argparse
import cmath
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Calls per chunk; traced runs alternate untraced and traced chunks.
CHUNK = 32
#: Each kernel's time at the reference host speed: roughly its median on the
#: 2-vCPU Intel Xeon KVM guest the benchmark was tuned on.  It
#: only fixes the unit; comparisons need the same value on both sides.
REF_PROBE_NS = {"arith": 330_000, "format": 425_000, "parse": 560_000}
#: Chunks on each side of a chunk whose probes set its scale.
SCALE_HALF_WINDOW = 2
#: The reference child (no gausshyp, numpy or scipy) and its wall seconds
#: at the reference host speed, about its median on the same guest.
REF_CHILD = ["-c", "import argparse, asyncio, decimal, email.mime.text, fractions, json, "
                   "sqlite3, statistics, unittest, xml.dom.minidom"]
REF_CHILD_S = 0.19

_ROTATE = cmath.exp(0.001j)


def _arith_kernel():
    t, s = 1 + 0j, 0j
    for n in range(1000):
        t *= _ROTATE
        s += t * (n & 7) / (1.0 + (n & 3))


def _mul_add(x: float, y: float) -> float:
    return x * y + 1.0


def _format_kernel():
    t, s = 1 + 0j, 0j
    parts = []
    for n in range(300):
        t *= _ROTATE
        s += t * (n & 7) / (1.0 + (n & 3))
        v = _mul_add(t.real, s.imag)
        if n & 3 == 0:
            parts.append(f"{v!r},{t.imag!r}")
    ",".join(parts)


def _parse_kernel():
    parser = argparse.ArgumentParser(prog="ref")
    cmd = parser.add_subparsers(dest="command").add_parser("eval")
    for name in ("--a", "--b", "--c", "--z", "--tol", "--w"):
        cmd.add_argument(name)
    cmd.add_argument("--terms", type=int, default=0)
    parser.parse_args(["eval", "--a=1.5", "--b=2.5", "--c=3.25", "--z=0.5+0.5i", "--terms", "7"])


_KERNELS = {"arith": _arith_kernel, "format": _format_kernel, "parse": _parse_kernel}


def host_probe(kind: str = "arith") -> int:
    """Nanoseconds for the reference kernel of a kind: how fast the host runs now."""
    kernel = _KERNELS[kind]
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def host_scale(probes: list[int], kind: str = "arith") -> float:
    """Factor from measured time to time at the reference host speed."""
    return REF_PROBE_NS[kind] / statistics.median(probes)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run the current interpreter with argv from the checkout root; wait for it."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=child_env(),
        cwd=ROOT, timeout=timeout,
    )


class ClosedLoop:
    """Calls step(k, traced) for k = 0, 1, ... in chunks; run() may be called again.

    step times its own call (leaving out the output check) and returns the
    nanoseconds.  With a tracer, chunks alternate untraced and traced, and
    the wrappers are installed only for traced chunks.  `limit` caps the
    number of steps over all runs.  Records per side (steps, timed ns) and
    per chunk ({kind: mean of the host probes before and after it} for each
    kind in `probes`, first step, end step).
    """

    def __init__(self, step, limit: int | None = None, tracer=None, chunk: int = CHUNK,
                 probes: tuple[str, ...] = ("arith",)):
        self.step, self.limit, self.tracer, self.chunk = step, limit, tracer, chunk
        self.probes = probes
        self.k = 0
        self.sides = {False: [0, 0], True: [0, 0]}
        self.chunks: list[tuple[dict[str, float], int, int]] = []

    def _read_probes(self) -> dict[str, int]:
        return {kind: host_probe(kind) for kind in self.probes}

    def done(self) -> bool:
        return self.limit is not None and self.k >= self.limit

    def run(self, seconds: float) -> None:
        """Run chunks until `seconds` have passed."""
        deadline = time.perf_counter() + seconds
        probes = self._read_probes()
        while time.perf_counter() < deadline and not self.done():
            probes = self._chunk(probes)

    def run_chunk(self) -> None:
        """Run one chunk, however long it takes."""
        if not self.done():
            self._chunk(self._read_probes())

    def _chunk(self, before: dict[str, int]) -> dict[str, int]:
        k = self.k
        on = self.tracer is not None and (k // self.chunk) % 2 == 1
        stop = k + self.chunk if self.limit is None else min(k + self.chunk, self.limit)
        if on:
            self.tracer.install()
        for j in range(k, stop):
            self.sides[on][1] += self.step(j, on)
        if on:
            self.tracer.uninstall()
        self.sides[on][0] += stop - k
        after = self._read_probes()
        self.chunks.append(({kind: (before[kind] + after[kind]) / 2 for kind in self.probes},
                            k, stop))
        self.k = stop
        return after

    def scales(self, kind: str | None = None) -> dict[int, float]:
        """Host-speed scale of every step run, from the `kind` probes of nearby chunks."""
        kind = kind or self.probes[0]
        probes = [c[0][kind] for c in self.chunks]
        out = {}
        for j, (_, first, end) in enumerate(self.chunks):
            window = probes[max(0, j - SCALE_HALF_WINDOW):j + SCALE_HALF_WINDOW + 1]
            scale = host_scale(window, kind)
            for k in range(first, end):
                out[k] = scale
        return out

    def probe_us(self) -> float:
        """Median host probe of the run's first kind, in microseconds."""
        return statistics.median(c[0][self.probes[0]] for c in self.chunks) / 1e3


def _wall(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = run_child(argv)
    return time.perf_counter() - t0, proc


def timed_child(argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """(wall seconds, host-speed scale, completed process) of one child run.

    The scale is REF_CHILD_S over the mean wall time of the reference child
    run just before and just after.
    """
    before, _ = _wall(REF_CHILD)
    seconds, proc = _wall(argv)
    after, _ = _wall(REF_CHILD)
    return seconds, REF_CHILD_S / ((before + after) / 2), proc
