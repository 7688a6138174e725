"""Span tracer for one pebblegame CLI process, installed from outside the package.

Run as ``python3 perfbench/tracer.py <cli args>``: it wraps the public
functions listed in ``TARGETS`` and ``sys.stdin.read``, counts what goes to
stdout, calls ``pebblegame.cli.main`` through its wrapper and, at exit,
writes the spans as JSON to
``$PERFBENCH_TRACE_DIR/<op>-<pid>.json``, where ``<op>`` is
``$PERFBENCH_OP``.  Both processes of a pipeline get the same op id.

A span has a name, start, end, parent, ``busy`` (time the layer held the
thread) and ``count``.  A plain call is one span with busy = end - start.
An iterator is one span whose busy time is the time spent inside its
``__next__``.  A rolled-up method (one span per parent for all its calls,
so that a per-move method keeps memory flat) sums its calls the same way.
One thread runs every span from one stack, so the children of a span never
overlap and all run while the parent is busy; self time is therefore the
parent's busy time minus the sum of its children's.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

# (span name, module, attribute path, kind).  Kinds: "call", "iter", "rollup".
TARGETS = (
    ("cli.main", "pebblegame.cli", "main", "call"),
    ("dp.f_cost", "pebblegame.dp", "f_cost", "call"),
    ("dp.split_point", "pebblegame.dp", "split_point", "call"),
    ("dp.build_table", "pebblegame.dp", "build_table", "call"),
    ("analysis.min_ts_auto", "pebblegame.analysis", "min_ts_auto", "call"),
    ("analysis.f_gamma_report", "pebblegame.analysis", "f_gamma_report", "call"),
    ("analysis.threshold_record", "pebblegame.analysis", "threshold_record", "call"),
    ("strategy.emit", "pebblegame.strategy", "iter_strategy_moves", "iter"),
    ("strategy.parse", "pebblegame.strategy", "parse_moves", "call"),
    ("strategy.replay", "pebblegame.strategy", "Strategy.__post_init__", "call"),
    ("strategy.replay", "pebblegame.strategy", "verify", "call"),
    ("strategy.replay", "pebblegame.strategy", "ReplayChecker.feed", "rollup"),
    ("strategy.replay", "pebblegame.strategy", "ReplayChecker.finish", "call"),
    ("strategy.intervals", "pebblegame.strategy", "to_intervals", "call"),
    ("oracle.bfs", "pebblegame.oracle", "bfs_min_time", "call"),
    ("oracle.bfs", "pebblegame.oracle", "bfs_path", "call"),
)

now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str
    start: float
    end: float | None = None
    busy: float = 0.0
    count: int = 0  # calls
    items: int = 0  # moves emitted or replayed, or cells of a returned table
    bytes: int = 0  # characters parsed, or written to stdout by cli.main
    error: str | None = None


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._rollups: dict = {}

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.op, now())
        self.spans.append(span)
        return span

    def wrap_call(self, name, fn):
        def traced(*args, **kwargs):
            span = self.open(name)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.stack.pop()
                span.end = now()
                span.busy = span.end - span.start
                span.count = 1
            _annotate(span, args, kwargs, result)
            return result

        return traced

    def wrap_iter(self, name, fn):
        def traced(*args, **kwargs):
            span = self.open(name)
            span.count = 1
            self.stack.append(span)
            try:
                inner = iter(fn(*args, **kwargs))
            finally:
                self.stack.pop()
                span.busy = now() - span.start
            return self._drive(span, inner)

        return traced

    def _drive(self, span, inner):
        stack = self.stack
        try:
            while True:
                t0 = now()
                stack.append(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    span.busy += now() - t0
                span.items += 1
                yield item
        finally:
            span.end = now()

    def wrap_rollup(self, name, fn):
        rollups = self._rollups

        def traced(*args, **kwargs):
            stack = self.stack
            key = stack[-1].id if stack else None
            span = rollups.get(key)
            if span is None:
                span = rollups[key] = self.open(name)
            t0 = now()
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = now()
                span.busy += span.end - t0
                span.count += 1
                span.items += 1

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the ones skipped."""
        skipped = []
        wrap = {"call": self.wrap_call, "iter": self.wrap_iter, "rollup": self.wrap_rollup}
        for name, module_name, path, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                skipped.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, wrap[kind](name, fn))
        return skipped


def _annotate(span: Span, args, kwargs, result) -> None:
    """Record the work counts a call's arguments or result show."""
    if span.name == "dp.build_table":
        span.items = result.nmax * result.smax
    elif span.name == "strategy.parse":
        span.bytes = len(args[0] if args else kwargs["text"])
        span.items = len(result)
    elif span.name == "strategy.replay" and result is None and hasattr(args[0], "moves"):
        span.items = len(args[0].moves)  # Strategy(...) replays for its peak


def self_times(spans: list[Span]) -> dict[int, float]:
    """Busy time of each span minus the busy time of its direct children."""
    own = {span.id: span.busy for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.busy
    return own


class _TracedStdin:
    """Stdin whose ``read`` is a span: in a pipeline it waits for the writer."""

    def __init__(self, stream, read):
        self._stream = stream
        self.read = read

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


class _CountingStdout:
    """Delegates to the real stdout and counts the characters written."""

    def __init__(self, stream):
        self._stream = stream
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return self._stream.write(text)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def main(argv: list[str]) -> int:
    tracer = Tracer(os.environ.get("PERFBENCH_OP", "0"))
    tracer.install()
    from pebblegame import cli

    stdout = sys.stdout = _CountingStdout(sys.stdout)
    sys.stdin = _TracedStdin(sys.stdin, tracer.wrap_call("cli.stdin", sys.stdin.read))
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = stdout._stream
        sys.stdout.flush()
        root = next((span for span in tracer.spans if span.name == "cli.main"), None)
        if root is not None:
            root.bytes = stdout.written
        out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
        if out_dir:
            path = os.path.join(out_dir, f"{tracer.op}-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump([asdict(span) for span in tracer.spans], handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
