"""Compare two result sets written by sweep.py, one row per workload and metric.

    python3 perfbench/compare.py base.jsonl new.jsonl

Each row gives both medians with their quartiles and the ratio new / base
with its base.  An end-to-end metric is ``unresolved`` when either side's
spread, (q3 - q1) / median, is wider than its bound in BENCHMARK.json,
unless every new run reads better than every base run; otherwise it is
``worse`` when the new median is worse by more than the bound, ``better``
when it is better by more than the base spread, and ``same`` otherwise.
Per-layer metrics have no bound: they are ``unresolved`` when the spread is
wider than the change itself.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from sweep import load, spec, summary


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    b_med, _, _, b_spread = summary(base)
    n_med, _, _, n_spread = summary(new)
    if not b_med:
        return "same" if not n_med else "changed"
    sign = 1 if better == "higher" else -1
    gain = sign * (n_med - b_med) / abs(b_med)  # > 0 when the new median is better
    spread = max(b_spread, n_spread)
    if (min(new) > max(base)) if sign > 0 else (max(new) < min(base)):
        return "better"
    if spread > (abs(gain) if bound is None else bound):
        return "unresolved"
    if bound is not None and gain < -bound:
        return "worse"
    if gain > b_spread:
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(args.base), load(args.new)
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        print(f"{workload} (trace {trace}; runs: base {len(next(iter(base[key].values())))}, "
              f"new {len(next(iter(new[key].values())))})")
        for name in [m for m in metrics if m in base[key] and m in new[key]]:
            b_med, b_q1, b_q3, _ = summary(base[key][name])
            n_med, n_q1, n_q3, _ = summary(new[key][name])
            meta = metrics[name]
            ratio = f"x{n_med / b_med:.4f} of {b_med:.6g}" if b_med else f"base {b_med:.6g}"
            print(
                f"  {name:40s} base {b_med:12.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                f"new {n_med:12.6g} [{n_q1:.6g}, {n_q3:.6g}] {meta['unit']:6s} {ratio:28s} "
                f"{verdict(base[key][name], new[key][name], meta['better'], meta.get('bound'))}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
