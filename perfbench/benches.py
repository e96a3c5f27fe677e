"""The three kinds of closed loop: sweeps, raster tiles, and CLI commands.

Each bench runs its loop for the run's seconds, then checks every output
outside the timed region and summarises the run.  The sweeps and raster
also give a share of each untraced segment to a second loop that runs the
same kind of request through the in-process CLI entry point,
`gausshyp.cli.main`, on inputs of their own; that loop gives cli_p50_ms.
gausshyp is imported only after run.py has timed the set-up.
"""

import contextlib
import io
import json
import math
import re
import statistics
import time
from array import array

import checks
import workloads as W
from loop import CHUNK, HERE, ClosedLoop, run_child, timed_child


#: Share of each untraced sweep or raster segment spent on the CLI loop.
CLI_LOOP_SHARE = 0.15
#: Routes whose time follows the "format" reference kernel rather than
#: "arith" as the host speeds up and slows down: the quadrature oracle runs
#: scipy's QUADPACK, which calls back into Python at every node.  Scaled
#: by "arith", the mixed sweep's p99 (which falls in this route) moved
#: with the host.
FORMAT_ROUTES = frozenset({"euler-oracle"})

_CLI_ERROR = re.compile(r"^error \((\w+)\)", re.M)


def timing(lat_ns, loop, inputs: int | None = None, kind_of=None) -> dict:
    """Median, p99 and throughput of every call of the loop, at the reference host speed.

    With `inputs`, call k ran input k % inputs, whose work is the same on
    every pass; the median and p99 are then over inputs, of each input's
    median latency over its passes, which leaves out host jitter.  With
    `kind_of`, call k is scaled by the reference kernel kind_of(k) instead
    of the loop's first one.
    """
    scales = loop.scales()
    if kind_of is not None:
        by_kind = {kind: loop.scales(kind) for kind in loop.probes}
        scales = {k: by_kind[kind_of(k)][k] for k in scales}
    calls = [lat_ns[k] * scale for k, scale in scales.items()]
    if inputs is None:
        scaled = sorted(calls)
    else:
        passes: dict[int, list[float]] = {}
        for k, value in zip(scales, calls):
            passes.setdefault(k % inputs, []).append(value)
        scaled = sorted(statistics.median(v) for v in passes.values())
    n = len(scaled)
    return {
        "p50_us": statistics.median(scaled) / 1e3,
        "p99_us": checks.percentile(scaled, 0.99) / 1e3,
        "calls_per_s": 1e9 * len(calls) / sum(calls),
        "n": n,
        "n_beyond_p99": checks.beyond(n, 0.99),
        "raw_p50_us": statistics.median(lat_ns[k] for k in scales) / 1e3,
        # How fast the host ran: a slow run shows a high probe.
        "host_probe_us": loop.probe_us(),
    }


def digit_stats(values) -> tuple[float, float]:
    """(1st percentile, minimum) of correct-digit counts."""
    vals = sorted(values)
    return checks.percentile(vals, 0.01), vals[0]


def run_cli(main, argv) -> tuple[int, str, str, int]:
    """(exit code, stdout, stderr, nanoseconds) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        rc = main(argv)
        dt = time.perf_counter_ns() - t0
    return rc, out.getvalue(), err.getvalue(), dt


class CliLoop:
    """gausshyp.cli.main on a bench's CLI inputs, in a closed loop of its own.

    check(i, rc, stdout) runs after each timed command and says whether its
    output is wrong.  Untraced only: a traced run leaves it out.
    """

    def __init__(self, argv_of, check, n: int, chunk: int, probe: str):
        import gausshyp.cli

        self.main, self.argv_of, self.check, self.n = gausshyp.cli.main, argv_of, check, n
        self.lat = array("q")
        self.wrong = 0
        self.loop = ClosedLoop(self.step, None, None, chunk=chunk, probes=(probe,))

    def step(self, k, on):
        i = k % self.n
        rc, stdout, _, dt = run_cli(self.main, self.argv_of(i))
        self.lat.append(dt)
        self.wrong += self.check(i, rc, stdout)
        return dt

    def warm(self):
        for i in range(min(self.n, self.loop.chunk)):
            run_cli(self.main, self.argv_of(i))

    def p50_ms(self) -> float:
        return timing(self.lat, self.loop)["p50_us"] / 1e3


class Sweep:
    """evaluate(params, z) in auto mode over the pool, pass after pass.

    Odd passes evaluate pool[i] at conj(z), whose reference is the
    conjugate (real parameters), so consecutive passes never repeat a z.
    """

    def __init__(self, workload, inputs, tracer=None):
        import gausshyp

        self.workload = workload
        self.pool = inputs["timed"]
        self.warmup = inputs["warmup"]
        self.HypParams, self.evaluate = gausshyp.HypParams, gausshyp.evaluate
        self.tracer = tracer
        if tracer is not None:
            self.traced_calls = (tracer.wrap("core.HypParams", self.HypParams),
                                 tracer.wrap("select.evaluate", self.evaluate))
        self.outs: list = []
        self.lat = array("q")
        # A traced run makes one pass at most, so repeat_share counts only
        # repeats the workload itself contains.
        limit = len(self.pool) if tracer is not None else None
        self.loop = ClosedLoop(self.step, limit, tracer, probes=("arith", "format"))
        self.cli_pool = inputs["cli"]
        self.cli = CliLoop(self.cli_argv, self.cli_check, len(self.cli_pool), CHUNK, "parse")

    def point(self, k):
        a, b, c, z = self.pool[k % len(self.pool)]
        return a, b, c, (z.conjugate() if (k // len(self.pool)) % 2 else z)

    def step(self, k, on):
        a, b, c, z = self.point(k)
        if on:
            self.tracer.current_point = k
            hyp, ev = self.traced_calls
        else:
            hyp, ev = self.HypParams, self.evaluate
        t0 = time.perf_counter_ns()
        try:
            res, method = ev(hyp(a, b, c), z)
            out = (res.value, res.est_error, res.converged, method.value, res.terms_used)
        except Exception as exc:  # every raise is a measured library failure
            out = type(exc).__name__
        dt = time.perf_counter_ns() - t0
        self.outs.append(out)
        self.lat.append(dt)
        return dt

    def warm(self):
        for a, b, c, z in self.warmup:
            try:
                self.evaluate(self.HypParams(a, b, c), z)
            except Exception:  # warm-up only; the same inputs are measured elsewhere
                pass
        self.cli.warm()

    def run(self, seconds):
        if self.tracer is not None:
            self.loop.run(seconds)
            return
        self.loop.run(seconds * (1 - CLI_LOOP_SHARE))
        self.cli.loop.run(seconds * CLI_LOOP_SHARE)

    def kind_of(self, k) -> str:
        """The reference kernel for call k, by the route it took."""
        out = self.outs[k]
        return "format" if isinstance(out, tuple) and out[3] in FORMAT_ROUTES else "arith"

    def cli_argv(self, i):
        a, b, c, z = self.cli_pool[i]
        return ["eval", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}", f"--z={W.fmt_complex(z)}"]

    def cli_check(self, i, rc, stdout) -> bool:
        """Whether `gausshyp eval` on CLI point i disagrees with evaluate on it."""
        a, b, c, z = self.cli_pool[i]
        try:
            expect = self.evaluate(self.HypParams(a, b, c), z)[0].value
        except Exception:  # the CLI must fail where evaluate raises
            return rc == 0
        try:
            got = json.loads(stdout)["value"]
            return rc != 0 or complex(got["re"], got["im"]) != expect
        except (ValueError, KeyError, TypeError):
            return True

    def accuracy(self) -> dict:
        """Every call checked against mpmath; routes and errors tallied."""
        n = len(self.pool)
        wanted = sorted({k % n for k, out in enumerate(self.outs)
                         if isinstance(out, tuple) and out[2] and _finite(out[0])})
        refs = checks.references(self.workload, self.pool, wanted)
        acc = {"ok": 0, "dishonest": 0, "wrong": 0, "nonfinite": 0, "unconverged": 0,
               "raised": 0, "no_reference": 0, "digits": [], "routes": {}, "errors": {}}
        for k, out in enumerate(self.outs):
            if not isinstance(out, tuple):
                acc["raised"] += 1
                acc["errors"][out] = acc["errors"].get(out, 0) + 1
                acc["routes"].setdefault("error", []).append(None)
                continue
            value, est, converged, route, terms = out
            acc["routes"].setdefault(route, []).append((terms, converged))
            if not _finite(value):
                acc["nonfinite"] += 1
            elif not converged:
                acc["unconverged"] += 1
            else:
                acc["ok"] += 1
                ref = refs[k % n]
                if ref is None:
                    acc["no_reference"] += 1
                    continue
                if (k // n) % 2 and self.pool[k % n][3].imag != 0.0:
                    ref = ref.conjugate()
                rel = checks.rel_error(value, ref)
                acc["digits"].append(checks.digits(rel))
                acc["dishonest"] += rel > checks.HONESTY_FACTOR * est
                acc["wrong"] += checks.is_wrong(rel, est)
        return acc

    def results(self) -> dict:
        acc = self.accuracy()
        attempted = len(self.outs)
        # The shared sweep makes several passes over its pool (z, then conj(z),
        # which costs the same), so its latency is per point, as on raster.
        inputs = len(self.pool) if self.workload == "sweep-shared" else None
        t = timing(self.lat, self.loop, inputs=inputs, kind_of=self.kind_of)
        e2e = {"points_per_s": t["calls_per_s"], "eval_p50_us": t["p50_us"],
               "eval_p99_us": t["p99_us"], "ok_frac": acc["ok"] / attempted}
        e2e["digits_p1"], e2e["digits_min"] = digit_stats(acc["digits"])
        if self.tracer is None:
            e2e["cli_p50_ms"] = self.cli.p50_ms()
        meta = {"timing": t, "passes": math.ceil(attempted / len(self.pool)),
                "cli_commands": len(self.cli.lat), "cli_wrong": self.cli.wrong,
                "accuracy": {k: v for k, v in acc.items() if k not in ("digits", "routes")},
                "route_calls": {r: len(v) for r, v in acc["routes"].items()},
                "converged_with_reference": len(acc["digits"])}
        layer = {"sides": self.loop.sides, "overhead_sides": self.loop.sides,
                 "routes": acc["routes"], "errors": acc["errors"], "traced_points": 0,
                 "dishonest": acc["dishonest"]}
        return {"e2e": e2e, "meta": meta, "layer": layer, "attempted": attempted,
                "wrong": acc["wrong"] + self.cli.wrong}


class Raster:
    """raster_to_csv (which drives region_raster) over seeded tiles."""

    def __init__(self, inputs, tracer=None):
        import gausshyp

        self.gh = gausshyp
        self.tiles = inputs["timed"]
        self.specs = [self.spec(t) for t in self.tiles]
        self.warm_specs = [self.spec(t) for t in inputs["warmup"]]
        self.tracer = tracer
        if tracer is not None:
            self.traced_csv = tracer.wrap("raster.raster_to_csv", gausshyp.raster_to_csv)
        self.lat = array("q")
        self.points = 0
        self.traced_points = 0
        self.bad_points = 0
        self.bad_tiles = 0
        # Margin digits of each distinct tile (its output is the same on every
        # pass), so memory does not grow with the number of passes.
        self.digits_of = {}
        # One tile of each method per chunk, so every chunk has the run's mix.
        limit = len(self.tiles) if tracer is not None else None
        self.loop = ClosedLoop(self.step, limit, tracer, chunk=len(W.RASTER_METHODS),
                               probes=("format",))
        self.cli_tiles = inputs["cli"]
        self.cli_specs = [self.spec(t) for t in self.cli_tiles]
        self.cli = CliLoop(lambda i: W.tile_argv(self.cli_tiles[i]), self.cli_check,
                           len(self.cli_tiles), len(W.RASTER_METHODS), "format")

    def spec(self, tile):
        return self.gh.RasterSpec(
            method=self.gh.MethodId.from_string(tile["method"]),
            xmin=tile["xmin"], xmax=tile["xmax"], ymin=tile["ymin"], ymax=tile["ymax"],
            res=tile["res"], w=W.RASTER_W if tile["method"] == "onepoint-w" else None,
            rho=W.RASTER_RHO,
        )

    def step(self, k, on):
        i = k % len(self.tiles)
        fn = self.traced_csv if on else self.gh.raster_to_csv
        if on:
            self.tracer.current_point = k
        t0 = time.perf_counter_ns()
        out = fn(self.specs[i])
        dt = time.perf_counter_ns() - t0
        self.lat.append(dt)
        points, bad, dig = checks.check_raster_csv(out, self.tiles[i], W.RASTER_W, W.RASTER_RHO)
        self.points += points
        self.traced_points += points if on else 0
        self.bad_points += bad
        self.bad_tiles += bad > 0
        self.digits_of.setdefault(i, dig)
        return dt

    def warm(self):
        for spec in self.warm_specs:
            self.gh.raster_to_csv(spec)
        self.cli.warm()

    def run(self, seconds):
        if self.tracer is not None:
            self.loop.run(seconds)
            return
        self.loop.run(seconds * (1 - CLI_LOOP_SHARE))
        self.cli.loop.run(seconds * CLI_LOOP_SHARE)

    def cli_check(self, i, rc, stdout) -> bool:
        """Whether `gausshyp region` for CLI tile i differs from raster_to_csv."""
        return rc != 0 or stdout != self.gh.raster_to_csv(self.cli_specs[i])

    def results(self) -> dict:
        import numpy as np

        t = timing(self.lat, self.loop, inputs=len(self.tiles))
        points_per_tile = self.tiles[0]["res"] ** 2
        dig = np.concatenate(list(self.digits_of.values()))
        e2e = {"points_per_s": t["calls_per_s"] * points_per_tile, "eval_p50_us": t["p50_us"],
               "eval_p99_us": t["p99_us"], "ok_frac": 1.0 - self.bad_points / self.points,
               "digits_p1": float(np.quantile(dig, 0.01, method="inverted_cdf")),
               "digits_min": float(dig.min())}
        if self.tracer is None:
            e2e["cli_p50_ms"] = self.cli.p50_ms()
        meta = {"timing": t, "grid_points": self.points, "tiles": len(self.lat),
                "cli_commands": len(self.cli.lat), "cli_wrong": self.cli.wrong,
                "passes": math.ceil(len(self.lat) / len(self.tiles)),
                "disagreeing_points": self.bad_points}
        layer = {"sides": self.loop.sides, "overhead_sides": self.loop.sides,
                 "routes": {}, "errors": {}, "traced_points": self.traced_points, "dishonest": 0}
        return {"e2e": e2e, "meta": meta, "layer": layer, "attempted": len(self.lat),
                "wrong": self.bad_tiles + self.cli.wrong}


class Cli:
    """`python -m gausshyp` subprocesses, one per segment, and the same commands in-process."""

    def __init__(self, inputs, tracer=None):
        import gausshyp.cli
        import gausshyp.tables

        self.cli = gausshyp.cli
        self.table_rows = {k: len(s.rows) for k, s in gausshyp.tables.TABLES.items()}
        self.cmds = inputs["timed"]
        self.warm_cmds = inputs["warmup"]
        self.tracer = tracer
        if tracer is not None:
            self.traced_main = tracer.wrap("cli.main", self.cli.main)
        self.sub_samples = []  # seconds of each subprocess command at the reference speed
        self.inproc_lat = array("q")
        self.outcomes = []  # (command index, ok, wrong, (value, est_error) for eval)
        self.errors: dict[str, int] = {}
        self.traced_points = 0
        self.sub_loop = ClosedLoop(self.sub_step, None, tracer, chunk=1)
        # A chunk is one full cycle of commands, so every chunk has the run's mix.
        self.inproc_loop = ClosedLoop(self.inproc_step, None, tracer, chunk=W.CLI_CYCLE_LEN)

    def _verify(self, cmd, rc, stdout, stderr):
        """(ok, wrong output, (value, est_error) for eval) for one command."""
        if rc != 0:
            for name in _CLI_ERROR.findall(stderr):
                self.errors[name] = self.errors.get(name, 0) + 1
            return False, True, None
        kind = cmd["kind"]
        if kind == "eval":
            try:
                payload = json.loads(stdout)
                value = complex(payload["value"]["re"], payload["value"]["im"])
                est = float(payload["est_error"])
            except (ValueError, KeyError, TypeError):
                return False, True, None
            finite = _finite(value)
            return finite, not finite, (value, est)
        if kind == "table":
            good = checks.check_table_csv(stdout, self.table_rows[cmd["table"]])
            return good, not good, None
        _, bad, _ = checks.check_raster_csv(stdout, cmd["tile"], W.RASTER_W, W.RASTER_RHO)
        return bad == 0, bad > 0, None

    def _region_points(self, cmd):
        return cmd["tile"]["res"] ** 2 if cmd["kind"] == "region" else 0

    def sub_step(self, k, on):
        cmd = self.cmds[k % len(self.cmds)]
        if on:
            argv = [str(HERE / "child.py"), "cli", *cmd["argv"]]
        else:
            argv = ["-m", "gausshyp", *cmd["argv"]]
        seconds, scale, proc = timed_child(argv)
        if on:
            dump = json.loads(proc.stdout)
            i0, i1 = dump["import_ns"]
            self.tracer.add_external("import.gausshyp", i0, i1, point=k)
            self.tracer.merge(dump["spans"], point=k)
            rc, stdout, stderr = dump["rc"], dump["stdout"], dump["stderr"]
            self.traced_points += self._region_points(cmd)
        else:
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        self.sub_samples.append(seconds * scale)
        self.outcomes.append((k % len(self.cmds), *self._verify(cmd, rc, stdout, stderr)))
        return int(seconds * 1e9)

    def inproc_step(self, k, on):
        cmd = self.cmds[k % len(self.cmds)]
        main = self.traced_main if on else self.cli.main
        if on:
            self.tracer.current_point = k
            self.traced_points += self._region_points(cmd)
        rc, stdout, stderr, dt = run_cli(main, cmd["argv"])
        self.inproc_lat.append(dt)
        self.outcomes.append((k % len(self.cmds), *self._verify(cmd, rc, stdout, stderr)))
        return dt

    def warm(self):
        run_child(["-m", "gausshyp", *self.warm_cmds[0]["argv"]])
        for cmd in self.warm_cmds:
            run_cli(self.cli.main, cmd["argv"])

    def run(self, seconds):
        """One subprocess command, then the in-process loop for `seconds`."""
        self.sub_loop.run_chunk()
        self.inproc_loop.run(seconds)

    def accuracy(self) -> dict:
        eval_idx = [i for i, c in enumerate(self.cmds) if c["kind"] == "eval"]
        refs = checks.references("cli", [self.cmds[i]["point"] for i in eval_idx],
                                 list(range(len(eval_idx))))
        ref_of = {i: refs[j] for j, i in enumerate(eval_idx)}
        acc = {"ok": 0, "wrong": 0, "dishonest": 0, "digits": [], "commands": len(self.outcomes)}
        for i, ok, wrong, detail in self.outcomes:
            acc["ok"] += ok
            acc["wrong"] += wrong
            if detail is None or ref_of.get(i) is None:
                continue
            value, est = detail
            rel = checks.rel_error(value, ref_of[i])
            acc["digits"].append(checks.digits(rel))
            acc["dishonest"] += rel > checks.HONESTY_FACTOR * est
            acc["wrong"] += checks.is_wrong(rel, est)
        return acc

    def results(self) -> dict:
        acc = self.accuracy()
        t = timing(self.inproc_lat, self.inproc_loop)
        e2e = {"points_per_s": t["calls_per_s"],
               "eval_p50_us": t["p50_us"], "eval_p99_us": t["p99_us"],
               "cli_p50_ms": statistics.median(self.sub_samples) * 1e3,
               "ok_frac": acc["ok"] / acc["commands"]}
        e2e["digits_p1"], e2e["digits_min"] = digit_stats(acc["digits"])
        meta = {"timing_inprocess": t, "subprocess_commands": len(self.sub_samples),
                "cli_samples_s": self.sub_samples,
                "subprocess_commands_per_s": len(self.sub_samples) / sum(self.sub_samples),
                "inprocess_commands": len(self.inproc_lat),
                "accuracy": {k: v for k, v in acc.items() if k != "digits"},
                "eval_outputs_with_reference": len(acc["digits"])}
        sides = {on: tuple(a + b for a, b in zip(self.sub_loop.sides[on], self.inproc_loop.sides[on]))
                 for on in (False, True)}
        layer = {"sides": sides, "overhead_sides": self.sub_loop.sides, "routes": {},
                 "errors": self.errors, "traced_points": self.traced_points,
                 "dishonest": acc["dishonest"]}
        return {"e2e": e2e, "meta": meta, "layer": layer, "attempted": acc["commands"],
                "wrong": acc["wrong"]}


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def make_bench(workload, inputs, tracer):
    if workload.startswith("sweep"):
        return Sweep(workload, inputs, tracer)
    return Raster(inputs, tracer) if workload == "raster" else Cli(inputs, tracer)
