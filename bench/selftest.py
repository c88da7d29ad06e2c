"""Self-test of the benchmark: its gates must be able to fail.

    python3 -m pytest -q bench/selftest.py

Takes about a minute. The file name keeps it out of the package's own
test run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.prepare()

import probe as pr  # noqa: E402  (needs the package path from prepare)
import workloads as wl  # noqa: E402
from anchored.schemes import COMPATIBLE_SCHEDULES, TraceOpts  # noqa: E402


def test_perturbed_reference_raises_fail_ratio():
    reference = wl.load_reference(7)
    name = "nag_eag/nag_eag"
    value, sha = reference[name]
    reference[name] = [value * (1.0 + 1e-6), sha]
    result = run.measure("desk_sweep", 7, 0, False,
                         check=wl.DeskChecker(reference))
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_a_seed_without_a_recorded_reference_is_an_error(tmp_path):
    with open(wl.REFERENCE_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    del table["seeds"]["7"]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    with pytest.raises(wl.MissingReference):
        wl.load_reference(7, path)


def test_every_workload_seed_has_a_recorded_reference():
    for seed in (0, 7, wl.REFERENCE_SEEDS, 10**6, -1):
        wl.load_reference(wl.instance_seed(seed))


def test_desk_sweep_at_a_second_seed_passes_its_checks():
    result = run.measure("desk_sweep", 11, 0, False)
    assert result["failed"] == 0, result["info"]["findings"]
    assert result["info"]["findings"] == []


def _desk_eval_budget():
    K = wl.DESK_K
    stride0 = TraceOpts(snapshot_stride=0)
    runs = sum(pr.eval_budget(scheme, K, stride0)
               for scheme, kinds in COMPATIBLE_SCHEDULES.items()
               for _ in kinds)
    figure = TraceOpts(snapshot_stride=0, track_x_residual=True)
    curves = sum(pr.eval_budget(scheme, K, figure)
                 for scheme in ("nesterov", "nesterov", "nag_eag", "nag_peag"))
    return runs + curves


def test_exact_counts_repeat_and_meet_the_documented_budgets():
    first = run.measure("desk_sweep", 7, 0, True)
    second = run.measure("desk_sweep", 7, 0, True)
    for key in run.EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    metrics = first["metrics"]
    assert metrics["bench.invariant_breaks"]["value"] == 0
    assert metrics["operators.evals"]["value"] == _desk_eval_budget()
    assert metrics["schemes.steps"]["value"] == 19 * wl.DESK_K
    assert metrics["schemes.snapshots"]["value"] == 0
    assert metrics["traceio.digest_mismatches"]["value"] == 0


def test_verify_small_counts_the_diagnostics_re_evaluation():
    result = run.measure("verify_small", 7, 0, True)
    metrics = result["metrics"]
    assert result["failed"] == 0, result["info"]["findings"]
    assert metrics["verify.checks"]["value"] == 39
    # peag potential series plus the peag_residual bound, K = 2000 each
    assert metrics["diagnostics.operator_evals"]["value"] == 2 * (2000 + 1)
    assert metrics["bench.invariant_breaks"]["value"] == 0


def test_exits_nonzero_without_the_package(tmp_path):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(bench_dir, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_sweep",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(run.PER_LAYER)
