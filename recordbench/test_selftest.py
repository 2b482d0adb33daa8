"""Self-test of the benchmark at tiny scale.

Run with ``PYTHONPATH=src python3 -m pytest recordbench -q`` from the
checkout root (about two minutes). It runs ``run.py`` as a driver would
and checks that every metric appears by name with its unit, that a perturbed
reference answer is counted as a failure, that a run leaves every
checked-in file unchanged, and that the command fails cleanly without
the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, REPORTED  # noqa: E402

#: The workloads of record (in BENCHMARK.json) and the off-record one.
RECORDED = ("selective-zipf", "durable-ingest")
WORKLOADS = ("fig-grid", *RECORDED)
TINY = ("--scale", "3", "--seconds", "0.2")


def run(workload: str, *extra: str, cwd: Path = ROOT,
        script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", "5", *extra], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=300)


def last_json(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def result_file(workload: str, trace: int) -> dict:
    return json.loads((HERE / "out" / f"{workload}-s5-t{trace}.json")
                      .read_text())


def tracked_digest() -> dict[str, str]:
    """Digest of every file a checkout holds, minus generated output."""
    skip = {".git", "out", "__pycache__", ".pytest_cache", ".hypothesis"}
    digests = {}
    for path in sorted(ROOT.rglob("*")):
        if path.is_file() and not skip & set(path.relative_to(ROOT).parts):
            digests[str(path.relative_to(ROOT))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(RECORDED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload):
    before = tracked_digest()
    completed = run(workload, *TINY, "--trace", "0")
    untraced = last_json(completed)
    assert untraced["metrics"] == {
        name: {"value": untraced["metrics"][name]["value"], "unit": unit}
        for name, unit in END_TO_END}
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())
    printed = {line.split()[0]: line.split()[-1]
               for line in completed.stdout.splitlines()
               if line.startswith("  ") and len(line.split()) == 3}
    expected = END_TO_END + (REPORTED if workload == "durable-ingest"
                             else REPORTED[:1])
    assert {name: printed.get(name) for name, _ in expected} \
        == dict(expected)
    if workload == "durable-ingest":
        assert result_file(workload, 0)["stamp"]["append_rate_per_s"] > 0
    traced = last_json(run(workload, *TINY, "--trace", "1"))
    assert traced["metrics"] == {
        name: {"value": traced["metrics"][name]["value"], "unit": unit}
        for name, unit in PER_LAYER}
    report = result_file(workload, 1)
    assert "query_p50_ms" in report["tracing_overhead"]
    assert report["spans"]["exec"]["count"] >= 1
    assert (HERE / "out" / f"{workload}-s5.spans.jsonl").stat().st_size
    assert tracked_digest() == before


def test_perturbed_reference_counts_as_failure():
    result = last_json(run("selective-zipf", *TINY, "--trace", "0",
                           "--perturb-reference"))
    assert result["correct"] is False
    assert result["failed"] >= 1
    report = result_file("selective-zipf", 0)
    assert report["end_to_end"]["error_rate"] > 0
    assert report["stamp"]["default_config"] is False


def test_fig_grid_mismatches_are_only_the_standing_divergence():
    run("fig-grid", *TINY, "--trace", "0")
    report = result_file("fig-grid", 0)
    assert [f for f in report["failures"] if not f["known"]] == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run("selective-zipf", "--seconds", "1", cwd=tmp_path,
                    script=tmp_path / HERE.name / "run.py")
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
