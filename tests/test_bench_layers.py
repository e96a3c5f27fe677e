"""bench/layers.py runs at a reduced size, and its committed BENCH_layers.json names the layers it writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gausshyp

ROOT = Path(__file__).resolve().parents[1]

LAYERS = {
    "threepoint._phi3_stream[cold]",
    "threepoint._phi3_stream[stored]",
    "threepoint._abc_stream",
    "threepoint._threepoint_terms[n=10, cold]",
    "threepoint._threepoint_terms[n=10, stored]",
    "threepoint._threepoint_terms[n=40, cold]",
    "threepoint._threepoint_terms[n=40, stored]",
    "core.sum_series[n=40]",
    "select.eval_threepoint[n=40, stored]",
    "select.evaluate[miss]",
    "select.evaluate[hit]",
    "buhring._d_stream",
    "buhring._buhring_terms[n=40]",
    "select.Route.sums[buhring, n=40]",
    "select.select_method[threepoint]",
    "select.select_method[deferred]",
    "select.rate[threepoint]",
    "select.rate[twopoint]",
    "select.rate[onepoint-half]",
    "select.rate[buhring]",
    "select.evaluate[fallback]",
    "core.HypParams",
    "select.select_method[buhring]",
    "select.Route.sums[buhring, n=40, 3+0.5i]",
    "select.evaluate[buhring]",
    "select.Route.sums[connection, n=10]",
    "select.Route.sums[connection, n=40]",
    "select.evaluate[integer b-a]",
    "select.evaluate[integer b-a, euler-oracle]",
    "select.evaluate[buhring, -2+2i]",
    "select.evaluate[buhring, -2+2i, n=40]",
    "select.evaluate[connection]",
    "select.evaluate[connection, n=40]",
}


#: The directory that holds the gausshyp this suite imports: src/ or site-packages.
PACKAGE_ROOT = Path(gausshyp.__file__).parents[1]


def _run_layers(out: Path, *args: str) -> dict:
    # the script imports the gausshyp this suite imports
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "--rounds", "1", "--number", "2", "--out", str(out), *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def test_layers_script_runs_at_reduced_size(tmp_path):
    result = _run_layers(tmp_path / "layers.json")
    assert result["settings"] == {"rounds": 1, "number": 2, "store": True, "paired": False}
    assert set(result["layers"]) == LAYERS
    for name, rec in result["layers"].items():
        assert rec["time"] > 0.0 and rec["unit"] in ("us", "us/term"), name
        assert 0.0 <= rec["max_rel_err"] <= 1e-13, name
        assert "parent_time" not in rec, name


def test_paired_mode_times_a_parent_tree_beside_each_layer(tmp_path):
    # this tree as its own parent: every layer is found there, and timed in the same rounds
    result = _run_layers(tmp_path / "paired.json", "--parent", str(PACKAGE_ROOT))
    assert result["settings"]["paired"] is True
    assert set(result["layers"]) == LAYERS
    for name, rec in result["layers"].items():
        assert rec["parent_time"] > 0.0 and rec["time"] > 0.0, name


def test_committed_ledger_has_every_layer():
    committed = json.loads((ROOT / "BENCH_layers.json").read_text(encoding="utf-8"))
    assert set(committed["layers"]) == LAYERS
    assert committed["settings"]["store"] is True
