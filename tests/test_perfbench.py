"""The benchmark script as a smoke test: `perfbench/run.py` with no time
budget runs one `analyze` on a workload, checks its artifacts, and reports
the metrics `BENCHMARK.json` names, per layer with `--trace 1` (the tracer
wraps the layer calls of `ctrend.cli`) and end to end with `--trace 0`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["survey-study", "raw-fixed"])
def test_benchmark_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    listed = {metric["name"] for metric in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert listed <= result["metrics"].keys()
