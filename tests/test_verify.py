"""The extended-precision references stay apart from the production routes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gausshyp"

#: The package root re-exports phi_brute and twopoint_coeffs_explicit, and
#: the CLI selftest compares against the references.
VERIFY_CLIENTS = {"__init__.py", "cli.py"}


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
