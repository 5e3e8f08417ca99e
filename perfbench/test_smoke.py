"""Smoke test of the benchmark itself (about a minute; not part of the
package's test suite):

    python3 -m pytest -q perfbench/test_smoke.py

It checks that BENCHMARK.json keeps to its format, that every run prints
every metric named there with its unit, that the detail carries every
issue-level metric and the env block, and that the benchmark refuses to
run without the package source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = "3"

ISSUE_METRICS = {
    "study": {"study_fits_per_s": "1/s"},
    "bulk": {
        "bulk_eval_points_per_s": "1/s",
        "bulk_uf_draws_per_s": "1/s",
        "bulk_biv_pairs_per_s": "1/s",
        "bulk_fit_large_s": "s",
    },
    "cli": {
        "cli_cdf_s": "s",
        "cli_fit_s": "s",
        "cli_sample_s": "s",
        "cli_moments_s": "s",
    },
}
ENV_KEYS = {"nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "seed"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(ISSUE_METRICS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(ISSUE_METRICS))
def test_end_to_end_run(workload):
    result = last_json(run_bench("--workload", workload, "--seed", SEED,
                                 "--seconds", "1", "--trace", "0"))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    details = json.loads((OUT / f"result_{workload}_seed{SEED}_trace0.json").read_text())
    assert {name: d["unit"] for name, d in details["named"].items()} == ISSUE_METRICS[workload]
    assert ENV_KEYS <= set(details["env"])


def test_traced_run():
    result = last_json(run_bench("--workload", "study", "--seed", SEED,
                                 "--seconds", "1", "--trace", "1"))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    details = json.loads((OUT / f"result_study_seed{SEED}_trace1.json").read_text())
    assert ENV_KEYS <= set(details["env"])


def test_refuses_without_package_source():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench("--workload", "study", "--seed", SEED, "--seconds", "1",
                     "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
