"""Smoke test of the benchmark: each workload once at reduced size.

    python3 -m pytest -q perfbench/test_smoke.py

Asserts that every metric is printed by name with its unit and that the
result line keeps its contract.  It makes no timing assertion.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# End-to-end metrics shown in the table, by workload.
SHOWN = {
    "sweep": {"points_per_s": "1/s", "ix_db": "dB"},
    "tune": {"evals_per_s": "1/s", "ix_db": "dB"},
    "oracle": {"steps_per_s": "1/s", "oracle_err": "1"},
}
COMMON = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "1"}
ENV_KEYS = {"git_sha", "src_sha256", "src_lines", "nproc", "python", "numpy", "blas",
            "blas_threads"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--quick"],
                          cwd=cwd, capture_output=True, text=True, timeout=175)


def table(stdout: str) -> dict[str, str]:
    """{metric name: unit} from the printed table rows."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            rows[parts[0]] = parts[2]
    return rows


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == trace + 1

    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))

    shown = table(proc.stdout)
    for name, unit in {**COMMON, **SHOWN[workload]}.items():
        assert shown.get(name) == unit, name
    if trace:
        for m in BENCH["per_layer"]:
            assert shown.get(m["name"]) == m["unit"], m["name"]

    env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    assert ENV_KEYS <= set(env)
    assert env["blas_threads"] <= env["nproc"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
