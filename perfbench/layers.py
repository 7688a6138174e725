"""Per-layer metrics from the spans of traced passes (see tracer.py).

Each traced operation leaves one span list per process.  Busy time of a
layer counts its outermost spans only (a ``verify`` span already holds the
``ReplayChecker.feed`` calls it makes), and self time subtracts child spans.
Every figure is a total over one traced pass; with several traced passes
the median is reported.  Per-command latencies and the tracing overhead
come from comparing with the untraced passes of the same run.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracer import Span, self_times

COMMANDS = (
    "cost", "oracle", "table", "tsmin", "fgamma", "bounds",
    "strategy_verify", "pipeline", "intervals",
)

UNITS = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.stdin_wait_s": "s",
    "dp.f_cost.calls": "count",
    "dp.f_cost.busy_s": "s",
    "dp.split_point.busy_s": "s",
    "dp.build_table.calls": "count",
    "dp.build_table.busy_s": "s",
    "dp.build_table.cells": "count",
    "dp.build_table.cells_per_s": "1/s",
    "dp.errors": "count",
    "analysis.min_ts_auto.self_s": "s",
    "analysis.min_ts_auto.tables_built": "count",
    "analysis.min_ts_auto.useful_cell_ratio": "ratio",
    "analysis.f_gamma_report.busy_s": "s",
    "analysis.threshold_record.busy_s": "s",
    "strategy.emit.busy_s": "s",
    "strategy.emit.moves": "count",
    "strategy.emit.moves_per_s": "1/s",
    "strategy.parse.busy_s": "s",
    "strategy.parse.bytes": "bytes",
    "strategy.replay.busy_s": "s",
    "strategy.replay.moves": "count",
    "strategy.intervals.busy_s": "s",
    "oracle.bfs.calls": "count",
    "oracle.bfs.busy_s": "s",
    **{f"cmd.{command}.p50_ms": "ms" for command in COMMANDS},
    "trace.overhead_frac": "ratio",
}


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def breakdown(wall: float, processes: list[list[Span]]) -> dict:
    """Split one operation's wall time into start-up, CLI self time and layer self time."""
    mains = [span for spans in processes for span in spans if span.name == "cli.main"]
    parts = Counter({"cli.startup_s": wall - covered((s.start, s.end) for s in mains)})
    for spans in processes:
        for span_id, own in self_times(spans).items():
            name = spans[span_id].name
            parts["cli.self_s" if name == "cli.main" else f"{name}.self_s"] += own
    return parts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layers(records) -> dict:
    """Layer totals over one traced pass, times scaled like the run's (Record.scale)."""
    out = Counter()
    for record in records:
        part = record_layers(record)
        for key, value in part.items():
            out[key] += value * record.scale if key.endswith("_s") else value
    out["dp.build_table.cells_per_s"] = _ratio(out["dp.build_table.cells"], out.pop("built_s", 0))
    out["analysis.min_ts_auto.useful_cell_ratio"] = _ratio(
        out.pop("useful_cells", 0), out.pop("all_cells", 0)
    )
    out["strategy.emit.moves_per_s"] = _ratio(
        out["strategy.emit.moves"], out["strategy.emit.busy_s"]
    )
    return out


def record_layers(record) -> Counter:
    """Unscaled layer totals of one traced operation."""
    busy, calls, errors = Counter(), Counter(), 0
    out = Counter()
    parts = breakdown(record.wall, record.spans)
    for key in ("cli.startup_s", "cli.self_s", "analysis.min_ts_auto.self_s"):
        out[key] = parts[key]
    for spans in record.spans:
        children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        for span in spans:
            outer = span.parent is None or spans[span.parent].name != span.name
            if outer:
                busy[span.name] += span.busy
            calls[span.name] += span.count
            if span.name.startswith("dp.") and span.error:
                errors += 1
            if span.name == "cli.main":
                out["cli.stdout_bytes"] += span.bytes
            elif span.name == "dp.build_table" and not span.error:
                out["dp.build_table.cells"] += span.items
                out["built_s"] += span.busy
            elif span.name in ("strategy.emit", "strategy.replay"):
                out[f"{span.name}.moves"] += span.items
            elif span.name == "strategy.parse":
                out["strategy.parse.bytes"] += span.bytes
            elif span.name == "analysis.min_ts_auto":
                built = [c.items for c in children[span.id]
                         if c.name == "dp.build_table" and not c.error]
                out["analysis.min_ts_auto.tables_built"] += len(built)
                out["all_cells"] += sum(built)
                out["useful_cells"] += built[-1] if built and not span.error else 0
    out["dp.errors"] = errors
    for metric in UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "busy_s":
            out[metric] = busy[layer]
    out["cli.stdin_wait_s"] = busy["cli.stdin"]
    return out


def metrics(untraced, traced) -> dict:
    """Every per-layer metric in UNITS, for one run."""
    per_pass = [pass_layers(batch) for batch in traced]
    result = {name: statistics.median(p[name] for p in per_pass) for name in UNITS}
    for command in COMMANDS:
        walls = [r.time for batch in untraced for r in batch if r.op.kind == command]
        result[f"cmd.{command}.p50_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
    wall_of = lambda batches: statistics.median(sum(r.time for r in b) for b in batches)
    result["trace.overhead_frac"] = wall_of(traced) / wall_of(untraced) - 1
    return {name: float(result[name]) for name in UNITS}


def sample(records) -> str:
    """The breakdown of the first single-process operation, with its sum."""
    record = next(r for r in records if len(r.spans) == 1)
    parts = breakdown(record.wall, record.spans)
    listed = " + ".join(f"{name}={value:.6f}" for name, value in sorted(parts.items()))
    return (f"{' '.join(record.op.argv())}: wall={record.wall:.6f} = {listed} "
            f"(sum {sum(parts.values()):.6f})")
