"""Heavy dependencies stay apart from the production routes.

The extended-precision references (mpmath) live in gausshyp.verify, and
no module imports scipy: the quadrature oracle is pure Python.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gausshyp"

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
    """stdout of code run in a fresh interpreter that imports gausshyp from src."""
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
