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
    "buhring.buhring_sums[n=40]",
    "select.select_method[threepoint]",
    "select.select_method[deferred]",
    "select.rate[threepoint]",
    "select.rate[twopoint]",
    "select.rate[onepoint-half]",
    "select.rate[buhring]",
    "select.evaluate[fallback]",
}


def test_layers_script_runs_at_reduced_size(tmp_path):
    out = tmp_path / "layers.json"
    # the script imports the gausshyp this suite imports: src/ or the installed package
    path = os.pathsep.join(filter(None, [str(Path(gausshyp.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "--rounds", "1", "--number", "2", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        check=True,
        timeout=120,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["settings"] == {"rounds": 1, "number": 2, "store": True}
    assert set(result["layers"]) == LAYERS
    for name, rec in result["layers"].items():
        assert rec["time"] > 0.0 and rec["unit"] in ("us", "us/term"), name
        assert 0.0 <= rec["max_rel_err"] <= 1e-13, name


def test_committed_ledger_has_every_layer():
    committed = json.loads((ROOT / "BENCH_layers.json").read_text(encoding="utf-8"))
    assert set(committed["layers"]) == LAYERS
    assert committed["settings"]["store"] is True
