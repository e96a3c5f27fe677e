"""The names the benchmark reads off the package must exist.

perfbench/tracing.py replaces each (module, attribute) of its TARGETS with
a timing wrapper when a traced run starts; a name that a refactor removed
would make ``perfbench/run.py --trace 1`` fail at install.  The benches
(benches.py, layers.py) also read a few names off the package root.
"""

import importlib
import importlib.util
from pathlib import Path

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
