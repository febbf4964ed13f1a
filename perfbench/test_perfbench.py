"""Tests of the benchmark itself, in smoke mode (all four workloads in seconds).

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "0", "--seconds", "0.1",
        "--trace", str(trace), "--scale", "smoke",
    )
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        closes = re.search(
            r"ledger closes: ([\d.]+) s attributed \+ (-?[\d.]+) s unattributed = ([\d.]+) s",
            proc.stdout,
        )
        attributed, unattributed, traced = map(float, closes.groups())
        assert attributed + unattributed == pytest.approx(traced, abs=1e-3)
        assert 0 <= unattributed < 0.25 * traced
        assert metrics["platforms.runs"] > 0 or workload == "rerender_warm"
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_other_seed_uses_cross_path_checks_only():
    result = result_of(
        bench("--workload", "serve_ogbn", "--seed", "7", "--seconds", "0.1", "--scale", "smoke")
    )
    assert result["correct"] is True and result["attempted"] >= 6


def test_checker_counts_each_mismatched_operation():
    checker = workloads.Checker({"a": "1", "b": "2", "c": "3"})
    study = workloads.Study(digests={"a": "1", "b": "x"}, failures={"a": "cross-path"})
    assert checker.check(study) == 3  # a: cross-path, b: digest, c: missing
    assert (checker.attempted, checker.failed) == (2, 3)


def test_checker_without_record_holds_later_studies_to_the_first():
    checker = workloads.Checker(None)
    assert checker.check(workloads.Study(digests={"a": "1"})) == 0
    assert checker.check(workloads.Study(digests={"a": "2"})) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "compare_ogbn", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checker_counts_an_operation_checked_outside_a_study():
    checker = workloads.Checker({"a": "1"})
    checker.check_one("ledger", None)
    checker.check_one("ledger", "does not close")
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.messages == ["ledger: does not close"]
