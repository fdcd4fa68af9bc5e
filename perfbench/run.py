"""fbarcirc benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep|tune|oracle --seed N \\
        --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates the workload's config from the seed, starts
fresh worker processes with the BLAS thread count pinned, times set-up in
each, then runs the workflow as a closed loop with one caller for at least
S seconds and checks every call's outputs.  It prints a table of every
metric by name and unit, an ``env`` line, and as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--quick`` shrinks every workload and makes one call (smoke testing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_inputs  # noqa: E402

# One BLAS thread per workload process: at two threads OpenBLAS doubles the
# CPU time of `simulate` for the same wall time.  Never above nproc.
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Fresh processes timed for setup_s, counting the workload process itself.
SETUP_SAMPLES = 7
# Every run must end within 180 s, worker start-up and set-up included.
DEADLINE_S = 170.0

END_TO_END = {  # name: unit, for the --trace 0 result
    "wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB",
}
# Workload-specific names of work_per_s and the output values shown beside it.
WORK_NAME = {"sweep": "points_per_s", "tune": "evals_per_s", "oracle": "steps_per_s"}
OUTPUT_UNITS = {"ix_db": "dB", "oracle_err": "1"}

PER_LAYER = {  # name: unit, for the --trace 1 result
    "htm.sparams_calls": "count", "htm.points": "count", "htm.sparams_s": "s",
    "htm.ms_per_point": "ms", "htm.dim": "count", "htm.assemble_ms": "ms",
    "htm.solve_ms": "ms", "htm.self_s": "s",
    "netlist.build_calls": "count", "netlist.build_s": "s", "netlist.self_s": "s",
    "touchstone.write_s": "s", "touchstone.bytes": "B", "touchstone.self_s": "s",
    "fileio.bytes": "B", "fileio.self_s": "s",
    "metrics.summarize_s": "s", "metrics.metrics_at_calls": "count",
    "metrics.metrics_at_s": "s", "metrics.self_s": "s",
    "tuner.objective_calls": "count", "tuner.objective_s": "s",
    "tuner.objective_failed": "count", "tuner.useful_ratio": "1",
    "tuner.best_eval_index": "index", "tuner.self_s": "s",
    "transient.simulate_s": "s", "transient.steps": "count",
    "transient.steps_per_s": "1/s", "transient.extract_s": "s",
    "transient.fit_residual": "1", "transient.self_s": "s",
    "config.load_s": "s", "config.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s", "trace.unaccounted_s": "s", "trace_overhead": "1",
    "raw_wall_s": "s", "raw_work_per_s": "1/s",
    "cpu_s": "s", "blas_threads": "count", "src_lines": "count",
}


class WorkerFailed(RuntimeError):
    pass


def source_record(root: Path) -> dict:
    """Git SHA when there is a repository, plus a hash and line count of the sources."""
    sha = None
    try:
        # The ceiling keeps git from searching directories above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src" / "fbarcirc").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def run_worker(mode: str, spec_path: Path, result_path: Path, env: dict,
               root: Path, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left before the run deadline")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), mode,
                               str(spec_path), str(result_path)],
                              cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker exceeded the {DEADLINE_S:.0f} s run deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def raw(calls: list[dict]) -> dict:
    """Median wall time and work rate of the plain calls, as measured."""
    plain = [c for c in calls if not c["traced"]]
    rates = [c["work"] / c["wall_s"] for c in plain if c["error"] is None]
    return {"raw_wall_s": statistics.median(c["wall_s"] for c in plain),
            "raw_work_per_s": statistics.median(rates) if rates else 0.0}


def end_to_end(workload: str, calls: list[dict], setups: list[dict],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """Contract metrics and the values shown beside them.

    Contract times are calibrated to the reference machine speed (see
    calibrate.py); the raw times are shown beside them.
    """
    plain = [c for c in calls if not c["traced"]]
    good = [c for c in plain if c["error"] is None]
    rates = [c["work"] / c["cal_wall_s"] for c in good]
    measured = raw(calls)
    metrics = {
        "wall_s": statistics.median(c["cal_wall_s"] for c in plain),
        "setup_s": statistics.median(s["cal_setup_s"] for s in setups),
        "work_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    shown = {
        WORK_NAME[workload]: (metrics["work_per_s"], "1/s"),
        "raw_wall_s": (measured["raw_wall_s"], "s"),
        "raw_work_per_s": (measured["raw_work_per_s"], "1/s"),
        "raw_setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "kernel_ms": (1e3 * statistics.median(c["kernel_s"] for c in plain), "ms"),
    }
    for name, unit in OUTPUT_UNITS.items():
        values = [c[name] for c in good if name in c]
        if values:
            shown[name] = (statistics.median(values), unit)
    failed = sum(c["error"] is not None for c in calls)
    shown["fail_frac"] = (failed / len(calls), "1")
    return metrics, shown


def per_layer(calls: list[dict], probe: dict, src_lines: int, blas_threads: int) -> dict:
    plain = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    layers = {k: statistics.fmean(c["layers"][k] for c in traced) for k in traced[0]["layers"]}
    wall = statistics.fmean(c["wall_s"] for c in traced)
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers.update(probe)
    layers["trace.wall_s"] = wall
    layers["trace.unaccounted_s"] = wall - self_sum
    layers["trace_overhead"] = (statistics.median(c["wall_s"] for c in traced)
                                / statistics.median(c["wall_s"] for c in plain) - 1.0)
    layers.update(raw(calls))
    layers["cpu_s"] = statistics.median(c["cpu_s"] for c in plain)
    layers["blas_threads"] = blas_threads
    layers["src_lines"] = src_lines
    return {name: layers[name] for name in PER_LAYER}


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<26} {value:>16.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    root = HERE.parent
    src = root / "src"
    if not (src / "fbarcirc" / "__init__.py").is_file():
        print(f"perfbench: no fbarcirc sources under {src}", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(args.workload, args.seed, args.quick)
        config_path = work / "workload.cfg"
        config_path.write_text(inputs.pop("config"), encoding="utf-8")
        spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "quick": args.quick, "config_path": str(config_path),
                "work_dir": str(work), **inputs}
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})

        setups = [run_worker("setup", spec_path, work / f"setup{i}.json", env, root, deadline)
                  for i in range(SETUP_SAMPLES - 1)]
        result = run_worker("run", spec_path, work / "run.json", env, root, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    setups.append({k: result[k] for k in ("setup_s", "cal_setup_s")})
    calls = result["calls"]
    source = source_record(root)
    env_record = {**source, **result["env"], "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "quick": args.quick}

    metrics, shown = end_to_end(args.workload, calls, setups, result["peak_rss_mb"])
    plain = sum(not c["traced"] for c in calls)
    rows = [(k, v, END_TO_END[k]) for k, v in metrics.items()]
    rows += [(k, v, unit) for k, (v, unit) in shown.items()]
    print_table(f"{args.workload}: end to end (median of {plain} calls, "
                f"{len(setups)} set-ups)", rows)
    units = END_TO_END
    if args.trace == 1:
        metrics = per_layer(calls, result["probe"], source["src_lines"],
                            result["env"]["blas_threads"])
        units = PER_LAYER
        print_table(f"{args.workload}: per layer (mean of {len(calls) - plain} traced calls)",
                    [(k, v, units[k]) for k, v in metrics.items()])
    for c in calls:
        if c["error"] is not None:
            print(f"check failed: {c['error']}")
    print("samples " + json.dumps({
        "wall_s": [c["wall_s"] for c in calls if not c["traced"]],
        "work": [c.get("work") for c in calls if not c["traced"]],
        "cal_wall_s": [c["cal_wall_s"] for c in calls if not c["traced"]],
        "traced_wall_s": [c["wall_s"] for c in calls if c["traced"]],
        "setup_s": [s["setup_s"] for s in setups],
        "cal_setup_s": [s["cal_setup_s"] for s in setups]}))
    print("env " + json.dumps(env_record, sort_keys=True))
    failed = sum(c["error"] is not None for c in calls)
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
