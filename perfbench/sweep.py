"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads point-queries,play-stream --seeds 1-10 \
        --out results.jsonl [--trace 0]

Runs are sequential, one at a time.  Each result line is appended to
``--out`` as ``{"workload", "seed", "trace", "result"}``; compare.py reads
two such files.  The summary gives, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path: Path) -> dict:
    """{(workload, trace): {metric: [values...]}} from a results file."""
    runs: dict = {}
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        metrics = runs.setdefault((entry["workload"], entry["trace"]), {})
        for name, metric in entry["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    bench = spec()
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            command = [
                *bench["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            with open(args.out, "a", encoding="utf-8") as handle:
                entry = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                handle.write(json.dumps(entry) + "\n")
            print(f"{workload} seed={seed} correct={result['correct']}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for (workload, trace), metrics in sorted(load(args.out).items()):
        print(f"\n{workload} (trace {trace}, {len(next(iter(metrics.values())))} runs)")
        for name, values in metrics.items():
            median, q1, q3, spread = summary(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:<5} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:40s} {median:14.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.4f} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
