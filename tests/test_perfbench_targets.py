"""The names the benchmark reads off the package must exist.

perfbench/tracing.py replaces each (module, attribute) of its TARGETS with
a timing wrapper when a traced run starts; a name that a refactor removed
would make ``perfbench/run.py --trace 1`` fail at install, and a caller
that stopped looking a name up where it is wrapped would turn its metric
to 0.  The benches (benches.py, layers.py) also read a few names off the
package root.
"""

import importlib
import importlib.util
from pathlib import Path

from conftest import Z_EXC

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # tracing.py imports only the standard library at module level
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = [
        (module_name, attr)
        for module_name, attr, *_ in _load_tracing().TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


#: Names perfbench/benches.py and perfbench/layers.py read as gausshyp.<name>.
ROOT_NAMES = ("HypParams", "MethodId", "RasterSpec", "buhring_coeffs", "evaluate", "raster_to_csv")


def test_root_names_resolve():
    import gausshyp

    assert [name for name in ROOT_NAMES if not hasattr(gausshyp, name)] == []


#: Span names that a traced evaluate per method and the eval, table and region commands record today.
LIVE_SPANS = (
    "select.select_method",
    "reference.maclaurin",
    "reference.euler_integral",
    "buhring.buhring_eval",
    "onepoint.eval_onepoint",
    "twopoint.eval_twopoint",
    "threepoint.eval_threepoint",
    "select.evaluate",
    "select.method_margin",
    "tables.run_table",
    "raster.raster_to_csv",
    "raster.region_raster",
    "core.HypParams",
)


def test_traced_targets_see_calls(tmp_path):
    from gausshyp import HypParams, MethodId, cli, evaluate

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        params = HypParams(1.2, 2.1, 3.0)
        for method in ("auto", *MethodId):
            z = {MethodId.MACLAURIN: 0.3 + 0.2j, MethodId.CONNECTION: 12.0 + 5.0j}.get(method, Z_EXC)
            evaluate(HypParams(1.2, 2.2, 3.0) if method is MethodId.CONNECTION else params, z, method, w=0.5 + 0.5j)
        evaluated = len(tracer.start)
        point = ["--a", "1.2", "--b", "2.1", "--c", "3", "--z", "exp(i*pi/3)"]
        grid = ["--xmin=-4", "--xmax=4", "--ymin=-4", "--ymax=4", "--res=9"]
        assert cli.main(["eval", *point, "--out", str(tmp_path / "eval.json")]) == 0
        assert cli.main(["table", "--id", "3", "--out", str(tmp_path / "table.csv")]) == 0
        assert cli.main(["region", "--method", "threepoint", *grid, "--out", str(tmp_path / "region.csv")]) == 0
    finally:
        tracer.uninstall()
    spans = {tracer.names[nid] for nid in tracer.name_id}
    assert [name for name in LIVE_SPANS if name not in spans] == []
    # perfbench times buhring_coeffs on (a, b, c, z0, n) read off these calls: z0 must reach it as z0, not as n
    buhring = [i for i in range(evaluated) if tracer.names[tracer.name_id[i]] == "buhring.buhring_eval"]
    assert [tracer.info[i] for i in buhring] == [(1.2, 2.1, 3.0, 0.5, 0.0, 40)]
