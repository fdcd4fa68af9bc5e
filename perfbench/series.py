"""Repeat benchmark runs over seeds, and compare two sets of runs.

    python3 perfbench/series.py collect --out A.jsonl [--workloads sweep,tune,oracle]
        [--seeds 1-10] [--trace 0|1]
    python3 perfbench/series.py compare A.jsonl B.jsonl

``collect`` runs ``run.py`` once per workload and seed at ``BENCHMARK.json``'s
``run_seconds``, appends one JSON record per run to the output file, and
prints each metric's median and quartile spread (IQR / median).
``compare`` reads two such files, for example one collected in a checkout
of each commit, and reports per workload and metric the two medians, the
change as a share of the first median, and a verdict against the bound in
``BENCHMARK.json``.  The raw (uncalibrated) wall time and work rate get a
verdict of their own against the bound of their calibrated twin, so the
calibrated figures alone cannot pass a change.  It ends with one overall
verdict and exits 1 if any gated figure is worse beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Raw figures, judged against the bound of the calibrated metric beside them.
RAW_TWIN = {"raw_wall_s": "wall_s", "raw_work_per_s": "work_per_s"}


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """{(workload, trace): {metric: [value per run]}} from a records file.

    Untraced runs also give ``raw_wall_s`` and ``raw_work_per_s``, the
    medians of the uncalibrated call times and work rates.
    """
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            metrics = out.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            if rec["trace"] == 0:
                samples = rec["samples"]
                rates = [w / t for w, t in zip(samples["work"], samples["wall_s"])
                         if w is not None]
                metrics.setdefault("raw_wall_s", []).append(statistics.median(samples["wall_s"]))
                metrics.setdefault("raw_work_per_s", []).append(statistics.median(rates))
    return out


def iqr_share(values: list[float]) -> float:
    med, q1, q3 = spread(values)
    return (q3 - q1) / abs(med) if med else 0.0


def summary(series: dict[str, list[float]]) -> None:
    for name, values in series.items():
        med, q1, q3 = spread(values)
        print(f"  {name:<26} median {med:>14.6g}  q1 {q1:>14.6g}  q3 {q3:>14.6g}"
              f"  iqr/median {iqr_share(values):.4f}  n={len(values)}")


def collect(args) -> int:
    seconds = benchmark()["run_seconds"]
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
            samples = next(json.loads(x[8:]) for x in lines if x.startswith("samples "))
            result = json.loads(lines[-1])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                     "env": env, "samples": samples,
                                     "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']}")
            for line in lines[:-1]:
                if not line.startswith(("env ", "samples ")):
                    print(line)
            sys.stdout.flush()
        print(f"{workload} (trace {args.trace}):")
        summary(load(args.out)[(workload, args.trace)])
    return 0


def compare(args) -> int:
    spec = benchmark()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    e2e.update({raw: e2e[twin] for raw, twin in RAW_TWIN.items()})
    a, b = load(args.first), load(args.second)
    verdicts = []
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        for name in a[key]:
            if name not in b[key]:
                continue
            ma, _, _ = spread(a[key][name])
            mb, _, _ = spread(b[key][name])
            change = (mb - ma) / abs(ma) if ma else 0.0
            line = f"  {name:<26} {ma:>14.6g} -> {mb:>14.6g}  change {change:+.4f}"
            if trace == 0 and name in e2e:
                m = e2e[name]
                worse = change if m["better"] == "lower" else -change
                noise = max(iqr_share(a[key][name]), iqr_share(b[key][name]))
                if noise > m["bound"]:
                    verdict = "unresolved (spread above bound)"
                elif worse > m["bound"]:
                    verdict = "WORSE beyond bound"
                else:
                    verdict = "within bound"
                verdicts.append(verdict)
                line += f"  bound {m['bound']}  {verdict}"
            print(line)
    if any(v.startswith("WORSE") for v in verdicts):
        print("verdict: WORSE")
        return 1
    print("verdict: " + ("unresolved" if any(v.startswith("unresolved") for v in verdicts)
                         else "within bounds"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default="sweep,tune,oracle")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
