#!/usr/bin/env python3
"""Benchmark of the cubefree CLI: three seeded workloads, end to end and layer by layer.

    python3 bench/run.py --workload certify --seed 0 --seconds 25 --trace 0

One closed-loop client (concurrency 1) calls ``cubefree.cli.main([...,
"--json"])`` in-process, one op at a time, for whole rounds of the
workload until ``--seconds`` have been spent on ops. Each op runs under a
fixed time limit; an op that raises, runs over the limit, or answers
wrongly is failed and counts at the limit in the latency figures. Every
answer is checked after the timed loop (see ``check.py``). The last line
of standard output is one JSON object with the metrics.

``--trace 1`` instead runs a fixed number of rounds with every public
function of the library's layers wrapped (see ``tracing.py``), reports the
per-layer metrics, and adds the aggregated spans to the per-op record
that every run writes to ``.bench_out/``. Its counts repeat exactly for a
given seed and ``--seconds``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own modules, next to this file)
from check import Checker  # noqa: E402
from tracing import Tracer  # noqa: E402

# Per-op time limit. The slowest seed ops that finish take under 5 s here
# (binary transition at |u|=|v|=28); the ops beyond it run for minutes.
LIMIT_S = 10.0
SETUP_REPEATS = 7
# Rough seconds per round on a 2-core x86 machine; a traced run takes
# round(seconds / ROUND_S) rounds (at least one), so its op set, and with
# it every count, depends on the arguments alone.
ROUND_S = {"certify": 3.2, "bridge": 22.0, "recheck": 4.5}
# Ops whose latency-versus-size slope is size_exponent: the workload's
# main kind, binary, untagged.
SCALING_KIND = {"certify": "extend", "bridge": "transition", "recheck": "check"}
# Host-speed calibration. The host may run interpreter-bound code in states
# up to 1.8x apart in speed, switching every few seconds to minutes, which
# moves raw timings of the same code by more than any useful bound. So
# before each op (and around each set-up call) the benchmark times a fixed
# kernel of its own: cube checks of the prefixes of one word, the string
# slicing and comparing the library spends its time on. Each op's time is
# multiplied by (KERNEL_REF_S / k) ** KERNEL_EXPONENT, where k is the median
# kernel time of the ops within KERNEL_WINDOW of it: its time on a host
# where the kernel takes KERNEL_REF_S. The exponent is the least-squares
# slope of log op time on log kernel time measured across the host's
# states; the library's ops slow down less than the kernel (slopes near 0.6
# for extend and near 1.0 for small transitions), and 0.75 sits between.
KERNEL_REF_S = 0.001
KERNEL_EXPONENT = 0.75
KERNEL_WINDOW = 3
_KERNEL_WORD = workloads.random_cube_free(random.Random("kernel"), 300, 2)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "answered_ratio": "ratio",
    "size_exponent": "slope",
    "resident_mb": "MB",
}
PER_LAYER = {
    "words.find_cube.calls": "count",
    "words.find_cube.letters": "letters",
    "words.find_cube.self_s": "s",
    "words.append_check.calls": "count",
    "words.append_check.letters": "letters",
    "words.append_check.self_s": "s",
    "transition.direct_walk.nodes": "count",
    "extend.verify.calls": "count",
    "extend.verify.letters": "letters",
    "extend.verify.self_s": "s",
    "extend.verify_per_answer": "ratio",
    "extend.is_right_extendable.calls": "count",
    "extend.is_right_extendable.self_s": "s",
    "extend.algorithm2.self_s": "s",
    "extend.memo.hit_ratio": "ratio",
    "extend.memo.entries": "count",
    "thue_morse.calls": "count",
    "thue_morse.self_s": "s",
    "thue_morse.prefix_len": "letters",
    "analysis.calls": "count",
    "analysis.self_s": "s",
    "transition.transition_exists.self_s": "s",
    "transition.construct_transition.calls": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.traced_ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def load_package():
    """Import cubefree from the checkout's own src/, and from nowhere else."""
    init = os.path.join(SRC, "cubefree", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no cubefree package at {init}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import cubefree
    from cubefree import cli, oracle  # noqa: F401  (loads the submodules)

    if os.path.abspath(cubefree.__file__) != init:
        raise SystemExit(f"error: imported cubefree from {cubefree.__file__}, not {init}")
    return cubefree


def kernel_seconds() -> float:
    """Time of the calibration kernel: the median of three runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(60, len(_KERNEL_WORD) + 1, 4):
            workloads.ends_with_cube(_KERNEL_WORD[:i])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_factor(kernel_s: float) -> float:
    """What a time taken while the kernel took kernel_s is multiplied by."""
    return (KERNEL_REF_S / kernel_s) ** KERNEL_EXPONENT


def setup_seconds(repeats: int) -> float:
    """Median time for a fresh interpreter to import cubefree and answer
    one trivial CLI call, each call scaled by the kernel times around it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "cubefree.cli", "check", "abbabaab", "--json"]
    times = []
    for _ in range(repeats):
        before = kernel_seconds()
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
        seconds = time.perf_counter() - t0
        times.append(seconds * speed_factor(statistics.fmean((before, kernel_seconds()))))
    return statistics.median(times)


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the library catches it."""


def _alarm(signum, frame):
    raise OpTimeout


@dataclass
class Result:
    op: workloads.Op
    status: str  # ok | timeout | error-exit | the exception's class name | wrong
    code: int | None
    stdout: str
    seconds: float
    resident_mb: float  # resident set size once the op has returned
    round_index: int = 0  # the round the op belongs to
    kernel_s: float = KERNEL_REF_S  # calibration kernel time just before the op

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def resident_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_op(main, op: workloads.Op, limit: float) -> Result:
    kernel = kernel_seconds()
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    code = None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.stdin or ""), out, io.StringIO()
            code = main(list(op.argv))
            status = "ok" if code in (0, 1) else "error-exit"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except Exception as exc:  # noqa: BLE001  (an op that raises is a measured failure)
        status = type(exc).__name__
    finally:
        # the alarm fires at most once, so nothing interrupts this
        sys.stdin, sys.stdout, sys.stderr = saved
    seconds = time.perf_counter() - t0
    return Result(op, status, code, out.getvalue(), seconds, resident_mb(), kernel_s=kernel)


def run_rounds(workload, main, *, seconds: float | None = None, rounds: int | None = None, tracer=None):
    """Whole rounds until seconds have passed (at least one round),
    or exactly the given number of rounds. Returns (results, rounds)."""
    results: list[Result] = []
    wall = 0.0
    k = 0
    while (k < rounds) if rounds is not None else (k == 0 or wall < seconds):
        ops = workload.round(k)  # generated outside the timed region
        t0 = time.perf_counter()
        for op in ops:
            state = tracer.snapshot() if tracer is not None else None
            r = run_op(main, op, LIMIT_S)
            r.round_index = k
            if tracer is not None and r.status == "timeout":
                tracer.rollback(state)
            results.append(r)
        wall += time.perf_counter() - t0
        k += 1
    return results, k


def check_results(results: list[Result], checker: Checker) -> int:
    """Mark wrong answers as failed; returns how many there were."""
    wrong = 0
    for r in results:
        if r.status == "ok":
            reason = checker.check(r.op, r.code, r.stdout)
            if reason is not None:
                print(f"WRONG {r.op.bucket} {' '.join(r.op.argv)[:120]}: {reason}", file=sys.stderr)
                r.status = "wrong"
                wrong += 1
    return wrong


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def size_exponent(results: list[Result], kind: str) -> float:
    """Least-squares slope of log(median latency) against log(size) across
    the binary size buckets of the workload's main op kind."""
    by_size: dict[int, list[float]] = {}
    for r, latency in zip(results, latencies(results)):
        if r.op.kind == kind and r.op.alphabet == 2 and not r.op.tag:
            by_size.setdefault(r.op.size, []).append(latency)
    xs = [math.log(n) for n in sorted(by_size)]
    ys = [math.log(statistics.median(by_size[n])) for n in sorted(by_size)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scaled_seconds(results: list[Result]) -> list[float]:
    """Each op's time at the reference host speed (see KERNEL_REF_S). An op
    cut off by the limit took the limit whatever the speed, so it is not
    scaled."""
    kernel = [r.kernel_s for r in results]
    scaled = []
    for i, r in enumerate(results):
        local = statistics.median(kernel[max(0, i - KERNEL_WINDOW) : i + KERNEL_WINDOW + 1])
        scaled.append(r.seconds if r.status == "timeout" else r.seconds * speed_factor(local))
    return scaled


def latencies(results: list[Result]) -> list[float]:
    """Scaled op times, with every failed op at the limit."""
    return [LIMIT_S if r.failed else t for r, t in zip(results, scaled_seconds(results))]


def ops_per_s(results: list[Result]) -> float:
    """Correct answers per second of scaled op time."""
    return sum(not r.failed for r in results) / sum(scaled_seconds(results))


def round_quantile(results: list[Result], q: int) -> float:
    """The q-th percentile of each round's latencies, averaged over rounds.

    Every round has the same composition, so each round's percentile
    estimates the same figure. Pooling all ops instead would put the
    percentile inside one group of ops of near-equal cost, and its value
    would jump whenever the host spent a little more or less than half the
    run in a slower state; the mean over rounds moves in proportion."""
    by_round: dict[int, list[float]] = {}
    for r, latency in zip(results, latencies(results)):
        by_round.setdefault(r.round_index, []).append(latency)
    return statistics.fmean(_quantile(latencies, q) for latencies in by_round.values())


def end_to_end(name: str, results: list[Result], setup: float) -> dict[str, float]:
    answered = sum(not r.failed for r in results)
    return {
        "setup_s": setup,
        "ops_per_s": ops_per_s(results),
        "latency_p50_ms": 1000 * round_quantile(results, 50),
        "latency_p90_ms": 1000 * round_quantile(results, 90),
        "answered_ratio": answered / len(results),
        "size_exponent": size_exponent(results, SCALING_KIND[name]),
        # the peak process memory would be set by how far an op cut off by
        # the limit got, so the figure is the largest resident set seen
        # after an answered op: caches, memo tables and what answers keep
        "resident_mb": max(r.resident_mb for r in results if not r.failed),
    }


def summary(results: list[Result]) -> None:
    """Per-bucket table on standard error, for people reading a run."""
    buckets: dict[str, list[Result]] = {}
    for r in results:
        buckets.setdefault(r.op.bucket, []).append(r)
    for bucket in sorted(buckets):
        rs = buckets[bucket]
        failed = [r.status for r in rs if r.failed]
        med = statistics.median(r.seconds for r in rs)
        print(f"  {bucket:34s} n={len(rs):4d} failed={len(failed):3d} median={1000 * med:9.1f} ms"
              + (f"  {sorted(set(failed))}" if failed else ""), file=sys.stderr)


def untraced_ops_per_s(args, rounds: int) -> float:
    """ops_per_s of the same rounds without tracing, from a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--rounds", str(rounds)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of timing by --seconds")
    args = parser.parse_args(argv)

    cubefree = load_package()
    main_fn = cubefree.cli.main
    signal.signal(signal.SIGALRM, _alarm)
    workload = workloads.make(args.workload, args.seed, main_fn)

    if args.trace:
        rounds = args.rounds or max(1, round(args.seconds / ROUND_S[args.workload]))
        reference = untraced_ops_per_s(args, rounds)
        tracer = Tracer(cubefree)
        tracer.install()
        try:
            # look cli.main up at each call, so the call goes through its wrapper
            results, rounds = run_rounds(workload, lambda a: cubefree.cli.main(a), rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        setup = setup_seconds(SETUP_REPEATS)
        results, rounds = run_rounds(workload, main_fn, seconds=args.seconds, rounds=args.rounds)
    checker = Checker(cubefree.oracle)
    wrong = check_results(results, checker)
    failed = sum(r.failed for r in results)
    print(f"{args.workload} seed={args.seed} rounds={rounds} ops={len(results)} failed={failed} wrong={wrong} "
          f"checked: {checker.by_seed} by seed answer, {checker.by_oracle} by oracle; "
          f"median kernel {1000 * statistics.median(r.kernel_s for r in results):.3f} ms", file=sys.stderr)
    summary(results)

    ops = [{"round": r.round_index, "bucket": r.op.bucket, "status": r.status, "seconds": r.seconds,
            "kernel_s": r.kernel_s}
           for r in results]
    if args.trace:
        yes = sum(not r.failed and r.code == 0 for r in results)
        metrics = tracer.layer_metrics(yes)
        metrics["trace.traced_ops_per_s"] = ops_per_s(results)
        metrics["trace.untraced_ops_per_s"] = reference
        metrics["trace.overhead_ratio"] = reference / metrics["trace.traced_ops_per_s"]
        units = PER_LAYER
        record = {"metrics": metrics, "spans": tracer.rows(), "ops": ops}
    else:
        metrics = end_to_end(args.workload, results, setup)
        units = END_TO_END
        record = {"metrics": metrics, "ops": ops}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds, **record}, fh, indent=1)
    report = {
        "correct": wrong == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
