"""Heavy dependencies stay apart from the production routes.

The extended-precision references (mpmath) live in gausshyp.verify, and
no module imports scipy: the quadrature oracle is pure Python.  Each CLI
command loads only the modules it runs: the tables, rasters and
references load on first use.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausshyp

SRC = Path(gausshyp.__file__).parent  # src/gausshyp, or the installed package the suite runs against

#: The CLI selftest compares the routes against the references.
VERIFY_CLIENTS = {"cli.py"}

def _imports(path):
    """(absolute module, imported names) for every import statement in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "gausshyp" + ("." + module if module else "")
            yield module, tuple(alias.name for alias in node.names)


def _importers(pred):
    return {
        path.name
        for path in SRC.glob("*.py")
        if any(pred(module, names) for module, names in _imports(path))
    }


def _run_python(code):
    """stdout of code run in a fresh interpreter that imports gausshyp from SRC."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_only_verify_imports_mpmath():
    assert _importers(lambda module, _: module.split(".")[0] == "mpmath") == {"verify.py"}


def test_no_module_imports_scipy():
    assert _importers(lambda module, _: module.split(".")[0] == "scipy") == set()


def test_production_modules_do_not_import_verify():
    importers = _importers(
        lambda module, names: module.startswith("gausshyp.verify")
        or (module == "gausshyp" and "verify" in names)
    )
    assert importers <= VERIFY_CLIENTS


def test_package_and_cli_import_without_mpmath():
    code = (
        "import sys, gausshyp, gausshyp.cli\n"
        "print([m for m in ('mpmath', 'scipy', 'numpy', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    assert _run_python(code).strip() == "[]"


def test_cli_commands_load_no_heavy_dependency():
    # auto takes threepoint at 0.5+0.87i, near exp(i*pi/3); the explicit
    # euler-oracle eval and table 4 run the quadrature oracle
    code = """
import json, os, sys
from gausshyp.cli import main
out = ["--out", os.devnull]
point = ["--a", "1.2", "--b", "2.1", "--c", "3", "--z", "0.5+0.87i"]
codes = [
    main(["eval", *point, *out]),
    main(["eval", *point, "--method", "euler-oracle", *out]),
    main(["region", "--method", "threepoint", "--xmin", "-4", "--xmax", "4",
          "--ymin", "-4", "--ymax", "4", "--res", "33", *out]),
    main(["table", "--id", "4", *out]),
]
heavy = ("scipy", "numpy", "mpmath", "dataclasses", "inspect")
print(json.dumps([codes, [m for m in heavy if m in sys.modules]]))
"""
    codes, loaded = json.loads(_run_python(code))
    assert codes == [0, 0, 0, 0]
    assert loaded == []



#: Run one CLI command as `python -m gausshyp` does, through gausshyp/__main__.py, with its stdout
#: discarded; then print its exit code and the loaded modules.
_LOADED_AFTER = """
import io, runpy, sys
sys.argv, sys.stdout = ["gausshyp", *{argv!r}], io.StringIO()
try:
    runpy.run_module("gausshyp", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    print(stop.code, *sorted(sys.modules), file=sys.__stdout__)
"""

_EVAL = ["eval", "--a=1.2", "--b=2.1", "--c=3", "--z=exp(i*pi/3)"]
_REGION = ["region", "--method=twopoint", "--xmin=-4", "--xmax=4", "--ymin=-4", "--ymax=4", "--res=5"]
_TABLES, _RASTER, _VERIFY = "gausshyp.tables", "gausshyp.raster", "gausshyp.verify"


def test_package_import_loads_no_table_raster_or_verify_module():
    loaded = set(_run_python("import sys, gausshyp\nprint(*sys.modules)").split())
    assert "gausshyp.select" in loaded
    assert not {_TABLES, _RASTER, _VERIFY} & loaded


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (_EVAL, {"json"}, {_TABLES, _RASTER, _VERIFY}),
        ([*_EVAL, "--format=text"], set(), {_TABLES, _RASTER, _VERIFY, "json"}),
        (["table", "--id", "4"], {_TABLES}, {_RASTER, _VERIFY, "json"}),
        (["table", "--id", "4", "--format=json"], {_TABLES, "json"}, {_RASTER, _VERIFY}),
        (_REGION, {_RASTER}, {_TABLES, _VERIFY, "json"}),
        (["selftest"], {_VERIFY}, {_TABLES, _RASTER, "json"}),
    ],
)
def test_each_command_loads_only_what_it_runs(argv, loads, skips):
    rc, *loaded = _run_python(_LOADED_AFTER.format(argv=argv)).split()
    assert rc == "0"
    assert loads <= set(loaded)
    assert not skips & set(loaded)


def test_root_stores_an_on_demand_name_on_first_access():
    code = (
        "import gausshyp\n"
        "before = 'TABLES' in vars(gausshyp)\n"
        "print(before, gausshyp.TABLES is vars(gausshyp)['TABLES'] is gausshyp.tables.TABLES)"
    )
    assert _run_python(code).split() == ["False", "True"]


def test_root_lists_and_serves_every_public_name():
    assert len(gausshyp.__all__) == 32
    # each route is evaluated as evaluate(..., method=m); the one-stop runner's names live in select only
    wrappers = ("buhring_eval", "eval_onepoint", "eval_threepoint", "eval_twopoint")
    assert [name for name in wrappers if hasattr(gausshyp, name)] == []
    assert set(gausshyp.__all__) <= set(dir(gausshyp))
    assert all(hasattr(gausshyp, name) for name in gausshyp.__all__)  # an on-demand name that fails to load raises
    assert gausshyp.RasterSpec is gausshyp.raster.RasterSpec
    assert gausshyp.region_raster is gausshyp.raster.region_raster
    assert not hasattr(gausshyp, "no_such_name")
