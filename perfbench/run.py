"""gausshyp benchmark: four workloads, accuracy-gated, with a traced layer split.

Run from the root of a checkout (no install needed; the package is loaded
from ./src):

    python3 perfbench/run.py --workload sweep-mixed --seed 1 --seconds 8 --trace 0

Load comes from this one process with a single caller in a closed loop:
each call starts after the previous one returns.  With --trace 0 the run
is untraced and the last stdout line carries every end-to-end metric of
BENCHMARK.json; with --trace 1 alternating chunks of calls run under
timing wrappers and the last line carries every per-layer metric.  A
metadata line (versions, sample counts, failure breakdown) precedes it,
and the full record is written to perfbench/results/.

A library failure (a call that raised, returned converged=False or a
non-finite value) is an outcome, measured by ok_frac.  A wrong output is
a benchmark failure that counts in "failed" and makes "correct" false: a
converged value off by more than max(1e-10, 100 x est_error) from
mpmath, a raster flag or margin that disagrees with the independent
check, or a CLI command that exits non-zero, prints something that does
not parse, or disagrees with evaluate or raster_to_csv on the same input.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# Standard library only, so nothing gausshyp needs is imported before the
# set-up is timed.
import workloads as W  # noqa: E402
from loop import ROOT, SRC, timed_child  # noqa: E402

RESULTS = HERE / "results"

#: Fresh processes timed for setup_s, one between each two segments.
SETUP_CHILDREN = 5


def timed_setup(workload: str, seed: int):
    """Import gausshyp and generate the run's inputs; (seconds, inputs)."""
    t0 = time.perf_counter()
    importlib.import_module("gausshyp")
    inputs = W.make_inputs(workload, seed)
    return time.perf_counter() - t0, inputs


def setup_sample(workload: str, seed: int) -> float:
    """Seconds of one fresh-process set-up, timed inside the child, at the reference speed."""
    _, scale, proc = timed_child([str(HERE / "child.py"), "setup", workload, str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)["setup_s"] * scale


def run_segments(bench, args) -> list[float]:
    """The timed loop in SETUP_CHILDREN + 1 segments.

    Untraced, one set-up child runs between each two segments, so that the
    set-up samples are spread over the run (see loop.py); returns their
    seconds.  On cli each segment also starts with one subprocess command.
    """
    segment = args.seconds / (SETUP_CHILDREN + 1)
    setups = []
    bench.run(segment)
    for _ in range(SETUP_CHILDREN):
        if not args.trace:
            setups.append(setup_sample(args.workload, args.seed))
        bench.run(segment)
    return setups


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    sha = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__, "nproc": os.cpu_count()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gausshyp" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'gausshyp'}; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    own_setup, inputs = timed_setup(args.workload, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import benches

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.calibrate()
    bench = benches.make_bench(args.workload, inputs, tracer)
    bench.warm()
    setups = run_segments(bench, args)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.workload == "cli":
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    res = bench.results()
    meta, layer, wrong = res["meta"], res["layer"], res["wrong"]
    if args.trace:
        import layers

        layer["fail_frac"] = 1.0 - res["e2e"]["ok_frac"]
        layer["dishonest_frac"] = layer["dishonest"] / res["attempted"]
        metrics = layers.layer_metrics(tracer, layer)
        metrics.update(layers.importtime_probe())
        wanted = spec["per_layer"]
    else:
        metrics = dict(res["e2e"], peak_rss_mb=peak, setup_s=statistics.median(setups))
        meta.update(setup_samples_s=setups, own_setup_raw_s=own_setup)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    meta.update(versions(), workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, wrong_outputs=wrong)
    result = {
        "correct": wrong == 0,
        "attempted": res["attempted"],
        "failed": wrong,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({"meta": meta, **result}, indent=1, default=str))
    if tracer is not None:
        tracer.write(RESULTS / f"spans-{stem}.json.gz")
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
