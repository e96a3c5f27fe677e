"""Per-layer metrics of a traced run, named as in BENCHMARK.json.

Per-call times come from the spans (wrapper cost subtracted), shares from
self times over the traced calls' time, route and error counts from the
run's outcomes, and import times from `python -X importtime`.
"""

import statistics
import time

from loop import run_child


def importtime_probe(runs: int = 3) -> dict:
    """Cumulative import ms of gausshyp and its heavy dependencies (median of runs)."""
    wanted = {"gausshyp": "import.gausshyp_ms", "scipy.integrate": "import.scipy_integrate_ms",
              "mpmath": "import.mpmath_ms", "numpy": "import.numpy_ms"}
    samples = {m: [] for m in wanted.values()}
    for _ in range(runs):
        proc = run_child(["-X", "importtime", "-c", "import gausshyp"])
        seen = dict.fromkeys(wanted.values(), 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                try:
                    seen[wanted[parts[2].strip()]] = int(parts[1]) / 1e3
                except ValueError:
                    pass
        for m, v in seen.items():
            samples[m].append(v)
    return {m: statistics.median(v) for m, v in samples.items()}


ROUTES = ("maclaurin", "euler-oracle", "buhring", "onepoint-half", "onepoint-w", "twopoint", "threepoint")
ERRORS = ("DomainError", "PoleError", "OutsideDomain", "ParamDomainError", "BranchCutError",
          "IntegerDifferenceError", "RecurrenceBreakdown", "SingularityError", "NoMethodError",
          "ConfigError")


def buhring_coeffs_us(tracer, limit: int = 200) -> float:
    """Time gausshyp.buhring_coeffs on the arguments of traced buhring_eval calls.

    The continuation's own coefficient recursion is private, so the public
    stream is timed on the same (s, z0, params, n) for both series.
    """
    import gausshyp

    args = [tracer.info[i] for i, nid in enumerate(tracer.name_id)
            if tracer.names[nid] == "buhring.buhring_eval" and i in tracer.info
            and i not in tracer.errors][:limit]
    if not args:
        return 0.0
    t0 = time.perf_counter_ns()
    for a, b, c, z0r, z0i, n in args:
        params = gausshyp.HypParams(a, b, c)
        gausshyp.buhring_coeffs(a, complex(z0r, z0i), params, n)
        gausshyp.buhring_coeffs(b, complex(z0r, z0i), params, n)
    return (time.perf_counter_ns() - t0) / len(args) / 1e3


def layer_metrics(tracer, layer: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json (0 where a layer is not exercised).

    layer holds the run's routes and errors, the traced raster points, the
    accuracy shares, and the (steps, timed ns) per side: "sides" for the
    whole traced run and "overhead_sides" for the points_per_s comparison.
    """
    s = tracer.summary()
    routes, errors, traced_points = layer["routes"], layer["errors"], layer["traced_points"]

    def per_call(name, field, scale):
        row = s.get(name)
        return row[field] / row["calls"] / scale if row and row["calls"] else 0.0

    m = {}
    calls_total = sum(len(v) for v in routes.values())
    for route in ROUTES + ("error",):
        m[f"select.route_share.{route}"] = len(routes.get(route, [])) / calls_total if calls_total else 0.0
    for route in ROUTES:
        rows = routes.get(route, [])
        m[f"{route}.terms_mean"] = statistics.fmean(t for t, _ in rows) if rows else 0.0
        m[f"{route}.unconverged_share"] = sum(not c for _, c in rows) / len(rows) if rows else 0.0
    m["core.HypParams.ns"] = per_call("core.HypParams", "busy_ns", 1)
    m["select.select_method.ns"] = per_call("select.select_method", "busy_ns", 1)
    m["select.evaluate.self_us"] = per_call("select.evaluate", "self_ns", 1e3)
    m["select.method_margin.ns"] = per_call("select.method_margin", "busy_ns", 1)
    for mod in ("onepoint", "twopoint", "threepoint"):
        m[f"{mod}.in_region_{mod}.ns"] = per_call(f"{mod}.in_region_{mod}", "busy_ns", 1)
    m["threepoint.threepoint_coeffs.us"] = per_call("threepoint.threepoint_coeffs", "busy_ns", 1e3)
    m["twopoint.twopoint_coeffs_recursive.us"] = per_call("twopoint.twopoint_coeffs_recursive", "busy_ns", 1e3)
    m["buhring.buhring_coeffs.us"] = buhring_coeffs_us(tracer)
    for name in ("threepoint.phi3_sequence", "onepoint.phi_half_sequence", "onepoint.phi_w_sequence"):
        row = s.get(name, {"calls": 0, "repeats": 0})
        m[f"{name}.us"] = per_call(name, "busy_ns", 1e3)
        m[f"{name}.calls"] = float(row["calls"])
        m[f"{name}.repeat_share"] = row["repeats"] / row["calls"] if row["calls"] else 0.0
    for name in ("threepoint.eval_threepoint", "twopoint.eval_twopoint",
                 "onepoint.eval_onepoint", "buhring.buhring_eval"):
        m[f"{name}.self_us"] = per_call(name, "self_ns", 1e3)
    m["reference.maclaurin.us"] = per_call("reference.maclaurin", "busy_ns", 1e3)
    m["reference.euler_integral.ms"] = per_call("reference.euler_integral", "busy_ns", 1e6)
    evals = s.get("reference.euler_integral", {"infos": []})["infos"]
    m["reference.euler_integral.neval_mean"] = statistics.fmean(evals) if evals else 0.0
    raster = s.get("raster.region_raster")
    m["raster.region_raster.ns_per_point"] = raster["busy_ns"] / traced_points if raster and traced_points else 0.0
    m["raster.raster_to_csv.self_ms"] = per_call("raster.raster_to_csv", "self_ns", 1e6)
    m["tables.run_table.ms"] = per_call("tables.run_table", "busy_ns", 1e6)
    m["cli.main.ms"] = per_call("cli.main", "busy_ns", 1e6)
    for name in ERRORS:
        m[f"errors.{name}.count"] = float(errors.get(name, 0))
    traced_wall = layer["sides"][True][1]
    for mod, ns in tracer.module_self_ns().items():
        m[f"{mod}.self_share"] = ns / traced_wall if traced_wall else 0.0
    (plain_steps, plain_ns), (traced_steps, traced_ns) = (
        layer["overhead_sides"][False], layer["overhead_sides"][True])
    if plain_steps and traced_steps:
        m["trace.overhead"] = (traced_ns / traced_steps) / (plain_ns / plain_steps)
    else:
        m["trace.overhead"] = 0.0
    m["trace.coverage"] = tracer.root_busy_ns() / traced_wall if traced_wall else 0.0
    m["accuracy.fail_frac"] = layer["fail_frac"]
    m["accuracy.dishonest_frac"] = layer["dishonest_frac"]
    return m
