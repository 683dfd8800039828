"""Self-check of the benchmark at a tiny corpus size.

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs untraced and traced on a few hundred documents. The
result line must carry exactly the metrics BENCHMARK.json declares,
with their units, and no stage call or check may fail.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import FAMILIES, WORKLOADS  # noqa: E402

TINY_DOCS = 400
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_and_metrics_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == {k: v for k, v in run.E2E_UNITS.items() if k != "error_rate"}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric_without_failures(name, trace, capsys):
    # model quality is not assessed at this size, so every floor is 0
    tiny = dataclasses.replace(WORKLOADS[name], n_docs=TINY_DOCS,
                               f1_floor=dict.fromkeys(FAMILIES, 0.0))
    result = run.run_workload(tiny, seed=0, seconds=1, trace=trace)
    printed = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # all twelve end-to-end metrics, error_rate included, are printed with units
    for metric, unit in run.E2E_UNITS.items():
        line = next(l for l in printed.splitlines() if l.split()[:1] == [metric])
        assert line.split()[-1] == unit
    assert next(l for l in printed.splitlines()
                if l.split()[:1] == ["error_rate"]).split()[1] == "0"


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "desk-binary-2k", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
