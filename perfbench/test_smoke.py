"""Smoke test of the benchmark itself, at ci scale and two-second phases.

    python3 -m pytest perfbench -q

Checks that every workload prints every metric ``BENCHMARK.json``
declares, with its unit, in both modes; that answers outside
``[0, num_rows]`` lower ``valid_answer_ratio`` instead of aborting the run;
and that the benchmark fails cleanly without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from harness import RunConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> dict:
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--scale", "ci",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    out = captured.out.strip().splitlines()
    line = json.loads(out[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    return line["metrics"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(capsys, workload, trace):
    metrics = _run(capsys, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(metrics) == [m["name"] for m in declared]
    for entry in declared:
        got = metrics[entry["name"]]
        assert got["unit"] == entry["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in declared)


class _Corrupting:
    """Corrupts the first answer of every call: NaN, then 10x num_rows, ..."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._calls = 0

    def __getattr__(self, name):
        if name == "_inner":  # not yet set while copy.deepcopy rebuilds us
            raise AttributeError(name)
        return getattr(self._inner, name)

    def estimate_many(self, queries):
        values = self._inner.estimate_many(queries).copy()
        self._calls += 1
        values[0] = math.nan if self._calls % 2 else 10 * self._inner.table.num_rows
        return values


def test_bad_answers_are_counted_not_fatal():
    import dynamic_update

    cfg = RunConfig("dynamic-update", 3, 1.0, False, "ci", wrap_estimator=_Corrupting)
    result = dynamic_update.run(cfg)
    # one of every CHUNK answers is bad, for every estimator
    assert result.notes["error_rate"] >= 1 / dynamic_update.CHUNK - 1e-9
    value, unit = result.metrics["valid_answer_ratio"]
    assert unit == "ratio" and value <= 1 - 1 / dynamic_update.CHUNK + 1e-9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
