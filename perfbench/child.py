"""Fresh-process helpers started by run.py.

    python3 perfbench/child.py setup <workload> <seed>
        time `import gausshyp` plus input generation in a new interpreter
        and print the seconds as JSON.

    python3 perfbench/child.py cli <gausshyp argv...>
        run one CLI command with the timing wrappers installed and print
        {rc, stdout, stderr, import_ns, spans} as JSON.

    python3 perfbench/child.py refs
        read [[a, b, c, re z, im z], ...] as JSON on stdin and print the
        mpmath references ([re, im] or null) as JSON.
"""

import contextlib
import io
import json
import sys
import time

from run import SRC, timed_setup


def _traced_cli(argv: list[str]) -> dict:
    t0 = time.perf_counter_ns()
    import gausshyp.cli as cli

    t1 = time.perf_counter_ns()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tracer.call("cli.main", cli.main, argv)
    tracer.uninstall()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "import_ns": [t0, t1], "spans": tracer.dump()}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["setup"] and len(argv) == 3:
        seconds, _ = timed_setup(argv[1], int(argv[2]))
        print(json.dumps({"setup_s": seconds}))
        return 0
    if argv[:1] == ["cli"]:
        print(json.dumps(_traced_cli(argv[1:])))
        return 0
    if argv == ["refs"]:
        import checks

        points = [(a, b, c, complex(zr, zi)) for a, b, c, zr, zi in json.load(sys.stdin)]
        print(json.dumps(checks.ref_chunk(points)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
