"""Benchmark of the pebblegame CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every operation is a fresh CLI process,
run in a closed loop by one client: the next starts when the last has ended
(a pipeline is two processes).  The seeded operation list is run in passes
until ``--seconds`` have gone by, at least once; every output is checked
against perfbench/reference.py outside the timed region.  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, or with ``--trace 1``
the per-layer metrics of a traced pass of the same list, run alongside an
untraced one (see perfbench/tracer.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "reference_costs_51_100.csv"
CLI = ["-c", "import sys; from pebblegame.cli import main; sys.exit(main())"]
TRACED_CLI = [str(BENCH_DIR / "tracer.py")]
# The host's speed drifts by tens of percent over seconds to minutes, for
# every CPU-bound process alike.  Before each operation, and after the last
# one, the benchmark times a fixed pure-Python loop (the least of three
# short rounds, so that a passing hiccup is ignored), with no operation
# running.  Each operation's timings are scaled by NOMINAL / (mean of the
# loops either side of it): seconds at the speed where the loop takes
# NOMINAL.
PROBE_ROUNDS = 20_000
PROBE_NOMINAL_S = 0.0025  # the loop's fast-phase time on a 2-core VM, Python 3.11

# A run must end within 180 s; past this, a hung operation is killed and the
# run fails without a result.
RUN_DEADLINE_S = 170

SETUP_OP = workloads.Op("cost", ("cost", 1, 1))
SETUP_WARMUP = 2  # trivial runs before the first pass, not timed
SETUP_SAMPLES = 10  # about this many more, spread over the first pass

# Per workload: operation list for a seed, and the reference range it needs.
WORKLOADS = {
    "point-queries": (lambda seed, ref: workloads.point_queries(seed), (4096, 20)),
    "bulk-tables": (lambda seed, ref: workloads.bulk_tables(seed), (1024, 72)),
    "play-stream": (lambda seed, ref: workloads.play_stream(seed, ref.f), (2**14, 20)),
}


@dataclass
class Record:
    op: workloads.Op
    wall: float
    rss_kb: int  # largest ru_maxrss of the operation's processes
    problems: list
    spans: list = field(default_factory=list)  # traced: one span list per process
    scale: float = 1.0  # speed normalization, see PROBE_NOMINAL_S

    @property
    def time(self) -> float:
        return self.wall * self.scale


def probe() -> float:
    """Least of three timings of a fixed pure-Python loop: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table, x = {}, 0
        for i in range(PROBE_ROUNDS):
            x = (x * 31 + i) % 1_000_003
            table[i & 1023] = x
        best = min(best, time.perf_counter() - start)
    return best


def _env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PEBBLEGAME_CONFIG", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def run_op(op: workloads.Op, entry: list[str], env: dict, err_dir: Path) -> tuple:
    """Run one operation; return (wall seconds, largest maxrss in KiB, Outcome)."""
    argvs = [op.argv()]
    if op.kind == "pipeline":
        argvs.append(["verify", *op.argv()[1:3]])
    err_paths = [err_dir / f"stderr{i}" for i in range(len(argvs))]
    procs = []
    start = time.perf_counter()
    try:
        stdin = None
        for i, (argv, err_path) in enumerate(zip(argvs, err_paths)):
            last = i == len(argvs) - 1
            read_end, write_end = (None, subprocess.PIPE) if last else os.pipe()
            with open(err_path, "wb") as err:
                procs.append(
                    subprocess.Popen(
                        [sys.executable, *entry, *argv],
                        stdin=stdin, stdout=write_end, stderr=err, env=env,
                    )
                )
            if stdin is not None:
                os.close(stdin)
            if not last:
                os.close(write_end)
            stdin = read_end
        stdout = procs[-1].stdout.read()
        procs[-1].stdout.close()
        codes, rss = [], 0
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            codes.append(proc.returncode)
            rss = max(rss, usage.ru_maxrss)
        wall = time.perf_counter() - start
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    stderr = "".join(path.read_text(errors="replace") for path in err_paths)
    return wall, rss, checks.Outcome(codes, stdout.decode(errors="replace"), stderr)


def run_pass(ops, ref, work: Path, traced: bool, tag: str, setup=None) -> list[Record]:
    """Run every operation once.  With a ``setup`` list, also time a trivial
    run before every len(ops) / SETUP_SAMPLES operations and add it there."""
    records, speed = [], [probe()]
    every = max(1, len(ops) // SETUP_SAMPLES)
    for i, op in enumerate(ops):
        if setup is not None and i % every == 0:
            setup.append(run_setup(work))
            setup[-1].scale = PROBE_NOMINAL_S / speed[-1]
        op_id = f"{tag}-{i}"
        extra = {"PERFBENCH_OP": op_id, "PERFBENCH_TRACE_DIR": str(work)} if traced else {}
        wall, rss, outcome = run_op(op, TRACED_CLI if traced else CLI, _env(extra), work)
        speed.append(probe())
        record = Record(op, wall, rss, checks.check(op, outcome, ref))
        record.scale = 2 * PROBE_NOMINAL_S / (speed[-2] + speed[-1])
        for path in sorted(work.glob(f"{op_id}-*.json")):
            record.spans.append([tracer.Span(**span) for span in json.loads(path.read_text())])
            path.unlink()
        if traced and len(record.spans) != len(outcome.codes):
            record.problems.append(
                f"{len(record.spans)} span lists for {len(outcome.codes)} processes"
            )
        records.append(record)
    return records


def run_setup(work: Path) -> Record:
    """One `cost 1 1`: interpreter start, import, argparse, a trivial answer."""
    wall, rss, outcome = run_op(SETUP_OP, CLI, _env(), work)
    ok = outcome.codes == [0] and outcome.stdout == "F(1,1) = 1\n"
    return Record(SETUP_OP, wall, rss, [] if ok else [f"exit {outcome.codes}, {outcome.stdout!r}"])


def work_rate(workload: str, records: list[Record], ref) -> float:
    """Work per second: queries/s, table cells/s of table latency, or verified moves/s."""
    if workload == "point-queries":
        return len(records) / sum(r.time for r in records)
    if workload == "bulk-tables":
        tables = [r for r in records if r.op.kind == "table"]
        return sum(r.op.args[1] * r.op.args[2] for r in tables) / sum(r.time for r in tables)
    moves = sum(ref.cost(r.op.args[1], r.op.args[2]) for r in records)
    return moves / sum(r.time for r in records)


def pass_metrics(workload: str, records: list[Record], ref) -> dict:
    walls = [r.time for r in records]
    return {
        "wall_s": sum(walls),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_p90_ms": statistics.quantiles(walls, n=10)[8] * 1e3,
        "peak_rss_mb": max(r.rss_kb for r in records) / 1024,
        "work_per_s": work_rate(workload, records, ref),
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "work_per_s": "1/s",
}


def _deadline(signum, frame):
    raise TimeoutError(f"run took longer than {RUN_DEADLINE_S} s")


def preflight() -> str | None:
    for needed in (SRC / "pebblegame" / "cli.py", GOLDEN):
        if not needed.is_file():
            return f"{needed.relative_to(ROOT)} not found: run from a full checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = preflight()
    if missing:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass


def _run(args, work: Path) -> int:
    make_ops, (ref_n, ref_s) = WORKLOADS[args.workload]
    ref = checks.Ref(ref_n, ref_s)
    golden = reference.golden(GOLDEN)
    if any(ref.cost(n, s) != value for (n, s), value in golden.items()):
        print("perfbench: reference recursion disagrees with the golden table", file=sys.stderr)
        return 3
    ops = make_ops(args.seed, ref)
    setup = [run_setup(work) for _ in range(SETUP_WARMUP)]
    setup_timed = []

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        tag = f"p{len(untraced) + len(traced)}"
        if args.trace and len(traced) < len(untraced):
            traced.append(run_pass(ops, ref, work, True, tag))
        else:
            untraced.append(run_pass(ops, ref, work, False, tag, None if untraced else setup_timed))
        if time.perf_counter() - start >= args.seconds and len(traced) >= args.trace:
            break
    setup_s = statistics.median(r.time for r in setup_timed)

    records = [r for batch in untraced + traced for r in batch] + setup + setup_timed
    failed = sum(1 for r in records if r.problems)
    for r in records:
        for problem in r.problems:
            print(f"FAIL {' '.join(r.op.argv())}: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layers.metrics(untraced, traced)
        units = layers.UNITS
        print(f"perfbench: sample breakdown: {layers.sample(traced[0])}", file=sys.stderr)
    else:
        per_pass = [pass_metrics(args.workload, batch, ref) for batch in untraced]
        metrics = {"setup_s": setup_s}
        metrics.update({k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]})
        units = UNITS
    attempted = len(records)
    scales = [r.scale for batch in untraced for r in batch]
    print(f"# {args.workload} seed={args.seed} passes={len(untraced)}+{len(traced)} traced "
          f"ops/pass={len(ops)} fail_frac={failed / attempted:.4f} ({failed}/{attempted})")
    print(f"# speed scale median {statistics.median(scales):.4f} [{min(scales):.4f}, "
          f"{max(scales):.4f}]; unscaled wall_s {sum(r.wall for r in untraced[0]):.4f}")
    for name, value in metrics.items():
        print(f"# {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
