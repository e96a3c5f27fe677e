"""The extended-precision references stay apart from the production routes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gausshyp"

#: The CLI selftest compares the routes against the references.
VERIFY_CLIENTS = {"cli.py"}


def _imports(path):
    """(absolute module, imported names) for every import statement in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
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


def test_only_verify_imports_mpmath():
    assert _importers(lambda module, _: module.split(".")[0] == "mpmath") == {"verify.py"}


def test_production_modules_do_not_import_verify():
    importers = _importers(
        lambda module, names: module.startswith("gausshyp.verify")
        or (module == "gausshyp" and "verify" in names)
    )
    assert importers <= VERIFY_CLIENTS


def test_package_and_cli_import_without_mpmath():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, gausshyp, gausshyp.cli; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
